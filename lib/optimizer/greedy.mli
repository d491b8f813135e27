(** Greedy join enumeration.

    The polynomial-time alternative to exact DP, in the spirit of the
    AB-algorithm line of work the paper cites [15]: start from the table
    with the smallest effective cardinality, then {!Dp.greedy_complete}
    repeatedly appends the (table, join method) pair with the least added
    cost, preferring predicate-connected extensions. O(n²·methods)
    instead of O(2ⁿ); estimates are the same incremental estimates DP
    uses, one kernel step per edge.

    Greedy is itself the rung exact DP degrades to, so it accepts a
    {!Rel.Budget} too: on exhaustion it finishes the last complete step's
    plan with {!Dp.left_deep} and reports the
    {!Provenance.Left_deep_fallback} rung. *)

val optimize :
  ?methods:Exec.Plan.join_method list ->
  ?budget:Rel.Budget.t ->
  Els.Profile.t ->
  Query.t ->
  Dp.node
(** Same arguments and result type as {!Dp.optimize}, so callers can swap
    enumerators.
    @raise Invalid_argument on an empty FROM list or empty [methods].
    @raise Els.Els_error.Error ([Invalid_query]) when no remaining table
    has an applicable join method at some step. *)

val optimize_traced :
  ?methods:Exec.Plan.join_method list ->
  ?budget:Rel.Budget.t ->
  Els.Profile.t ->
  Query.t ->
  Dp.node * Provenance.t
(** [optimize] plus the provenance record (rung, exhaustion, expansion
    count). *)
