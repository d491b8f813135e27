type column_ref = {
  qualifier : string option;
  name : string;
}

type operand =
  | Col of column_ref
  | Lit of Rel.Value.t

type bound = {
  base : operand;
  offset : float; (* signed; 0. when no [+ k]/[- k] was written *)
}

type condition =
  | Cmp of {
      lhs : operand;
      op : Rel.Cmp.t;
      rhs : operand;
      op_pos : int; (* byte offset of the comparison operator *)
    }
  | Between of {
      lhs : operand;
      lo : bound;
      hi : bound;
      pos : int; (* byte offset of the BETWEEN keyword *)
    }

type select_item =
  | Sel_star
  | Sel_count_star
  | Sel_columns of column_ref list

type from_item = {
  table : string;
  alias : string option;
}

type query = {
  select : select_item;
  from : from_item list;
  where : condition list;
}
