(** Predicate evaluation against tuples.

    Used by the execution engine's filter and join operators, and by tests
    to check that derived (transitively closed) predicates really hold on
    the data. Column references are resolved against the tuple's schema
    once via {!compile}, then applied per tuple. *)

type compiled = Rel.Tuple.t -> bool

val compile : Rel.Schema.t -> Predicate.t -> compiled
(** @raise Invalid_argument when a referenced column is absent from the
    schema. *)

val compile_all : Rel.Schema.t -> Predicate.t list -> compiled
(** Conjunction of all predicates; the empty list compiles to [fun _ ->
    true]. *)

type compiled_pair = Rel.Tuple.t -> Rel.Tuple.t -> bool

val compile_pair :
  Rel.Schema.t -> split:int -> Predicate.t list -> compiled_pair
(** {!compile_all} for a join's output schema, evaluated on the (left,
    right) pair it concatenates; the left tuple holds [split] columns. *)
