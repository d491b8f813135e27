(** Untyped abstract syntax produced by the parser, before name
    resolution. *)

type column_ref = {
  qualifier : string option; (** table qualifier when written [t.c] *)
  name : string;
}

type operand =
  | Col of column_ref
  | Lit of Rel.Value.t

type bound = {
  base : operand;
  offset : float;
      (** signed numeric offset on the bound ([col - 0.5] gives [-0.5]);
          [0.] when no arithmetic was written *)
}

type condition =
  | Cmp of {
      lhs : operand;
      op : Rel.Cmp.t;
      rhs : operand;
      op_pos : int;  (** byte offset of the comparison operator *)
    }
      (** a plain [lhs op rhs] comparison *)
  | Between of {
      lhs : operand;
      lo : bound;
      hi : bound;
      pos : int;  (** byte offset of the BETWEEN keyword *)
    }
      (** [lhs BETWEEN lo AND hi]; bounds may carry [± offset] arithmetic
          on a column base, which the binder recognizes as a band join *)

type select_item =
  | Sel_star
  | Sel_count_star
  | Sel_columns of column_ref list

type from_item = {
  table : string;
  alias : string option; (** [FROM t a] or [FROM t AS a] *)
}

type query = {
  select : select_item;
  from : from_item list;
  where : condition list; (** conjunction; empty for no WHERE *)
}

