(** Qualified column references: [table.column].

    These are the atoms the paper's equivalence classes are built over.
    Both components are stored lower-cased, so two references to the same
    column are structurally equal. *)

type t = {
  table : string;
  column : string;
}

val make : table:string -> column:string -> t
val v : string -> string -> t
(** [v "R1" "x"] is shorthand for {!make}. *)

val compare : t -> t -> int
val equal : t -> t -> bool

val same_table : t -> t -> bool

val to_string : t -> string
val pp : Format.formatter -> t -> unit

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
