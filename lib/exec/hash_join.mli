(** Hash equi-join.

    Builds a hash table over the inner (right) input keyed on the equi-join
    columns when the join is built, then streams the outer (left) input,
    probing per tuple. Residual predicates are evaluated on each candidate
    pair. SQL semantics: tuples with a NULL join key never match. *)

val join :
  Counters.t ->
  Query.Predicate.t list ->
  outer:Operator.t ->
  inner:Operator.t ->
  Operator.t
(** The build side's reads are charged (and spend the counters' row
    budget) by the inner operator itself, at construction; every emitted
    row goes through {!Emit.joiner}.
    @raise Invalid_argument when no equi-key bridges the two inputs (use
    {!Nested_loop.join} for cartesian products). *)
