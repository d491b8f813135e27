(** Projection and aggregation operators. *)

val columns : Query.Cref.t list -> Operator.t -> Operator.t
(** Keep only the named columns, in the given order.
    @raise Invalid_argument when a column is missing from the input. *)

val count_star : Operator.t -> int
(** Run the input and return the row count — [SELECT COUNT( )]. *)
