(** Randomized join-order search (iterative improvement).

    The paper notes that incremental estimation is also what drives
    randomized query optimizers [14, 5]. This enumerator searches the
    space of left-deep join orders by iterative improvement: random
    restarts, each descending through random adjacent-swap neighbors until
    no accepted move occurs for a while. Each visited order is costed once
    by {!Dp.extend_in_order}, the cheapest join method per step, and a
    restart keeps its descent's final plan without costing it again.

    Deterministic given [seed]. With a {!Rel.Budget} the walk checks the
    deadline between restarts and charges every costed extension; on
    exhaustion it returns the best complete order costed so far (rung
    {!Provenance.Random_walk}), or the {!Dp.left_deep} fallback when no
    descent finished. *)

val optimize :
  ?methods:Exec.Plan.join_method list ->
  ?seed:int ->
  ?budget:Rel.Budget.t ->
  Els.Profile.t ->
  Query.t ->
  Dp.node
(** 8 restarts of at most 100 steps each; [seed] defaults to 1. Same
    result type as {!Dp.optimize}.
    @raise Invalid_argument on an empty FROM list or empty [methods].
    @raise Els.Els_error.Error ([Invalid_query]) when a visited step has
    no applicable join method (e.g. [~methods:[Hash]] across a step with
    no eligible equi-join predicate). *)

val optimize_traced :
  ?methods:Exec.Plan.join_method list ->
  ?seed:int ->
  ?budget:Rel.Budget.t ->
  Els.Profile.t ->
  Query.t ->
  Dp.node * Provenance.t
(** [optimize] plus the provenance record (rung, exhaustion, expansion
    count). *)
