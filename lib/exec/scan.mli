(** Base-table scans with optional pushed-down filters. *)

val relation :
  Counters.t -> ?filters:Query.Predicate.t list -> Rel.Relation.t -> Operator.t
(** Sequential scan. Every tuple read is charged to [tuples_read] (and
    spends the counters' row budget); every filter evaluation to
    [comparisons]. Surviving tuples flow out. *)
