(** Index nested-loop join.

    The inner base relation is indexed once per run on the (first)
    equi-join column, in a {!Flat_table}; each outer tuple probes the
    index and only the matching inner tuples are touched, most recently
    inserted first. The inner's pushed-down filters and any residual
    join predicates are evaluated per match.

    Work accounting: building the index reads the inner once, when the
    join is built; each probe charges one comparison plus one read per
    matched tuple. Reads and emitted rows spend the counters' row budget
    like every other operator's. *)

val join :
  ?table:Flat_table.t ->
  Counters.t ->
  Query.Predicate.t list ->
  inner_filters:Query.Predicate.t list ->
  outer:Operator.t ->
  inner:Rel.Relation.t ->
  Operator.t
(** [join counters preds ~inner_filters ~outer ~inner] indexes [inner] in
    [table] (a new one by default). [preds] must contain at least one
    column equality bridging the outer schema and the inner relation's
    schema.
    @raise Invalid_argument otherwise. *)
