(** Index nested-loop join.

    The inner base relation is indexed once on the (first) equi-join
    column; each outer tuple probes the index and only the matching inner
    tuples are touched. The inner's pushed-down filters and any residual
    join predicates are evaluated per match.

    Work accounting: building the index reads the inner once, when the
    join is built; each probe charges one comparison plus one read per
    matched tuple. Reads and emitted rows spend the counters' row budget
    like every other operator's. *)

val join :
  Counters.t ->
  Query.Predicate.t list ->
  inner_filters:Query.Predicate.t list ->
  outer:Operator.t ->
  inner:Rel.Relation.t ->
  Operator.t
(** [join counters preds ~inner_filters ~outer ~inner]. [preds] must
    contain at least one column equality bridging the outer schema and the
    inner relation's schema.
    @raise Invalid_argument otherwise. *)
