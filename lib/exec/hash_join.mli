(** Hash equi-join.

    Materializes the inner (right) input into a {!Flat_table} on the hash
    of its equi-join columns when the join is built, then streams the
    outer (left) input, probing per tuple. Residual predicates are
    evaluated on each candidate pair. SQL semantics: tuples with a NULL
    join key never match. *)

val join :
  ?table:Flat_table.t ->
  Counters.t ->
  Query.Predicate.t list ->
  outer:Operator.t ->
  inner:Operator.t ->
  Operator.t
(** The build side goes into [table] (a new one by default); its reads
    are charged (and spend the counters' row budget) by the inner operator
    itself, at construction. A probe charges one comparison, plus one per
    key for each build row with the probe's {!Rel.Tuple.hash_at}; every
    emitted row goes through {!Emit.joiner}.
    @raise Invalid_argument when no equi-key bridges the two inputs (use
    {!Nested_loop.join} for cartesian products). *)
