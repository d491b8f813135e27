(** Selinger-style dynamic programming over left-deep join trees [13].

    For every subset of the query's tables the enumerator keeps the
    cheapest left-deep plan, extending subsets one table at a time.
    Cardinalities are estimated {e incrementally along each plan's own
    build order} with the configured estimation algorithm — exactly the
    regime the paper analyzes (and exactly how inconsistent rules like SS
    end up assigning different sizes to the same subset reached by
    different orders).

    Cartesian products are considered only for subsets with no predicate-
    connected extension, as in System R.

    {2 Per-mask arrays}

    The enumeration keeps three arrays indexed by table mask: the cost of
    the cheapest plan found for the subset, its estimated size along that
    plan's own order, and a back-pointer packing the bit of the table the
    plan added last with its join method (-1 for an unreached subset).
    Masks are visited subset size by subset size, in ascending order.
    Each edge [S → S ∪ {t}] runs one compiled kernel step
    ({!Els.Kernel.extend_into_slot}), and every applicable join method is
    charged and costed from that one size: nested loop always, sort-merge
    with any eligible join predicate, hash and index nested loop with an
    eligible equi-join. A candidate replaces the incumbent unless the
    incumbent costs no more, so ties keep the first candidate, methods in
    the caller's order. The loop allocates nothing per expansion; the
    result {!node} is built once, from the back-pointers, with its
    eligible predicates and scan filters computed on the chosen path
    only. Because a step runs once per edge rather than once per method,
    an estimation guard that breaches inside a DP step is counted once
    per edge.

    The three arrays are not allocated per call: each domain keeps the
    last call's arrays for its next one and refills only the
    back-pointers, since every read of a cost or a size is guarded by a
    reached back-pointer. A call takes them with an atomic exchange and
    gives them back once its result is built, so a re-entrant call, a
    second systhread on the same domain, or the call after one that
    raised allocates fresh arrays instead. Arrays of more than 2{^16}
    entries (queries of more than 16 tables) are not retained; 2{^16}
    entries are 1.5 MiB per domain over the three arrays.

    {2 Budgets and anytime degradation}

    Exact DP is exponential, so [optimize] accepts a {!Rel.Budget}: each
    seed scan and each (edge, method) candidate is one node expansion
    charged with {!Rel.Budget.spend_node} (which also probes the
    deadline), and the deadline is additionally checked at every
    subset-size boundary. On exhaustion the enumerator does not fail — it
    returns the cheapest of a ladder of anytime candidates: the best full
    plan found so far, a greedy completion of the cheapest partial plan
    at each finalized subset size (each built from the arrays), and the
    FROM-order left-deep fallback. The candidate set only grows as the
    budget does, so with identical inputs a larger budget never yields a
    costlier plan, and {!optimize_traced} reports which rung actually
    produced the answer. With [?budget:None] the enumeration is
    bit-identical to the unbudgeted implementation. *)

type node = {
  plan : Exec.Plan.t;
  state : Els.Incremental.state;
      (** estimation state along the plan's join order *)
  cost : float;
}

val optimize :
  ?methods:Exec.Plan.join_method list ->
  ?budget:Rel.Budget.t ->
  Els.Profile.t ->
  Query.t ->
  node
(** Best left-deep plan for all the query's tables. [methods] defaults to
    all three join methods; the paper's experiment restricts it to
    [[Nested_loop; Sort_merge]]. To enumerate under another estimator,
    pass {!Els.Profile.with_estimator}'s copy of the profile (the built
    statistics are shared, not recomputed). [budget] bounds the search;
    see the module preamble for the degradation ladder.
    @raise Invalid_argument on an empty FROM list or empty [methods].
    @raise Els.Els_error.Error ([Invalid_query]) on more than 20 tables
    (the greedy and random enumerators have no such limit), or when
    [methods] cannot join the query at all (no nested loop and a step
    without an eligible equi-join predicate). *)

val optimize_traced :
  ?methods:Exec.Plan.join_method list ->
  ?budget:Rel.Budget.t ->
  Els.Profile.t ->
  Query.t ->
  node * Provenance.t
(** [optimize] plus the provenance record: which ladder rung produced the
    plan, whether (and on which resource) the budget tripped, and how many
    node expansions were performed. *)

val method_applicable : Exec.Plan.join_method -> Query.Predicate.t list -> bool
(** Whether the method can join with the given eligible predicates:
    sort-merge needs at least one, hash and index nested loop an
    equi-join; nested loop always applies. Shared by all three
    enumerators. *)

val scan_node : Els.Profile.t -> string -> node
(** A single-table access node with its filters and estimation state;
    shared with the alternative enumerators ({!Greedy}, {!Random_walk}). *)

val extend : Els.Profile.t -> node -> string -> Exec.Plan.join_method ->
  Query.Predicate.t list -> node
(** [extend profile node table method_ eligible] joins one more table onto
    a left-deep node, threading the incremental estimation state and the
    cost model. [eligible] must be the predicates connecting [table] to the
    node (as computed by {!Els.Incremental.eligible}). *)

val no_method_error : Exec.Plan.join_method list -> string list -> 'a
(** Raise the structured [Invalid_query] error for a step where none of
    the allowed methods applies (shared by all enumerators — this used to
    be an [assert false]). *)

val best_extension :
  ?charge:(unit -> unit) ->
  Els.Profile.t ->
  Exec.Plan.join_method list ->
  node ->
  string ->
  (node * bool) option
(** Cheapest applicable extension of the node with the table over the
    allowed methods, tagged with whether the step is predicate-connected;
    [None] when no method applies. [charge] is invoked once per [extend]
    (budget accounting). Shared by the greedy enumerator and the anytime
    completions. *)

val complete_order :
  ?charge:(unit -> unit) ->
  methods:Exec.Plan.join_method list ->
  Els.Profile.t ->
  node ->
  string list ->
  node
(** Extend the node with the given tables in exactly the given order,
    cheapest applicable method per step.
    @raise Els.Els_error.Error ([Invalid_query]) when a step has no
    applicable method. *)

val plan_order :
  ?charge:(unit -> unit) ->
  methods:Exec.Plan.join_method list ->
  Els.Profile.t ->
  string list ->
  node
(** Cost a complete left-deep order: {!scan_node} on the first table, then
    {!complete_order} over the rest.
    @raise Invalid_argument on the empty list. *)

val greedy_step :
  ?charge:(unit -> unit) ->
  methods:Exec.Plan.join_method list ->
  Els.Profile.t ->
  node ->
  string list ->
  node * string list
(** One greedy step: among [remaining], append the (table, method) pair
    with the least cost, preferring predicate-connected extensions; the
    first candidate wins a cost tie. Returns the grown node and the tables
    still missing from it.
    @raise Els.Els_error.Error ([Invalid_query]) when no remaining table
    has an applicable method. *)

val greedy_complete :
  ?charge:(unit -> unit) ->
  methods:Exec.Plan.join_method list ->
  Els.Profile.t ->
  node ->
  string list ->
  node
(** {!greedy_step} until no table remains. O(n²·methods), always
    terminates — the rung exact DP degrades to when its budget runs out.
    @raise Els.Els_error.Error ([Invalid_query]) when no remaining table
    has an applicable method. *)
