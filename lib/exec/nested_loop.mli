(** Tuple-at-a-time nested-loop join.

    Starburst-style: the inner subplan is re-executed (its scan re-run,
    filters re-evaluated) for every outer tuple, and every rescan is
    charged to the work counters. This is what makes a nested-loop join
    with a large inner and a mis-estimated outer genuinely expensive in
    this engine — the effect the paper's Section 8 experiment turns on.
    Works for any predicate set, including none (cartesian product). *)

val join :
  Counters.t ->
  Query.Predicate.t list ->
  outer:Operator.t ->
  inner_schema:Rel.Schema.t ->
  make_inner:(unit -> Operator.t) ->
  Operator.t
(** [make_inner] must produce a fresh operator of [inner_schema] over the
    same input each time it is called; it is called once per outer tuple
    and never when the join is built, so an inner whose construction does
    work (a hash join's build side) is charged only when it is scanned.
    Every emitted row goes through {!Emit.joiner}, so it spends the
    counters' row budget. *)
