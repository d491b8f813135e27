(** Selinger-style dynamic programming over left-deep join trees [13],
    and the one extension step every enumerator grows a plan with.

    For every subset of the query's tables the enumerator keeps the
    cheapest left-deep plan, extending subsets one table at a time.
    Cardinalities are estimated {e incrementally along each plan's own
    build order} with the configured estimation algorithm — exactly the
    regime the paper analyzes (and exactly how inconsistent rules like SS
    end up assigning different sizes to the same subset reached by
    different orders). Cartesian products are considered only for
    subsets with no predicate-connected extension, as in System R.

    {2 One extension step}

    Every enumerator ({!Greedy}, {!Random_walk}, this module and its
    anytime ladder) extends a plan through one edge function over one
    per-query {!space}. An edge charges each applicable join method
    (nested loop always, sort-merge with any eligible join predicate,
    hash and index nested loop with an eligible equi-join), runs one
    compiled kernel step ({!Els.Kernel.extend_into_slot}) after the first
    charge, prices each method with {!Cost.join_into}, and hands every
    priced candidate to its caller, which keeps its own tie rule. An
    estimation guard that breaches inside a step is therefore counted
    once per edge. The result {!node} is built once, with its eligible
    predicates and scan filters computed on the chosen path only.

    {2 Per-mask arrays}

    The exhaustive enumeration keeps three arrays indexed by table mask:
    the cost of the cheapest plan found for the subset, its estimated size
    along that plan's own order, and a back-pointer packing the bit of the
    table the plan added last with its join method (-1 for an unreached
    subset). Subsets are priced size by size in pull form: each mask of
    size k+1, in ascending order, visits its sources (the mask minus one
    table, in ascending order) and each source's applicable methods in
    order — the sequence a push from every source in ascending order would
    hand it — so every cost, size and back-pointer is the push loop's. A
    candidate replaces the incumbent unless the incumbent costs no more,
    so ties keep the first. The loop allocates nothing per expansion.

    {2 Two lanes}

    A level with enough edges to repay a round trip to another domain is
    split by rank: the calling domain prices the lower half of its masks,
    one helper domain per process the upper half. Each lane has its own
    per-mask arrays, kernel lane ({!Els.Kernel.fit}), pricing slots and
    counts, written only by its domain: the helper first copies the
    level's sources from the caller's arrays, the caller afterwards copies
    the helper's masks and adds its counts. A level in which either lane
    raises reruns from its start on the caller's lane alone, neither
    keeping counts from the attempt. Only calls without a budget over at
    most 16 tables split. The helper is spawned the first time a level
    qualifies (never when {!Domain.recommended_domain_count} is below 2)
    and blocks between levels; a planner claims it for the rest of its
    call, and one that finds it claimed runs every level on one lane. One
    lane and two give the same plan, bits, counts and raised error.

    Each domain keeps the last call's lane for its next one, refilling
    only the back-pointers (every read of a cost or a size is guarded by a
    reached one). A call takes it with an atomic exchange and gives it
    back once its result is built, so a re-entrant call, a second
    systhread on the domain, or the call after one that raised allocates a
    fresh lane. Arrays of more than 2{^16} entries (over 16 tables;
    1.5 MiB per domain over the three) are not retained.

    {2 Budgets and anytime degradation}

    Exact DP is exponential, so [optimize] accepts a {!Rel.Budget}: each
    seed scan and each (edge, method) candidate is one node expansion
    charged with {!Rel.Budget.spend_node} (which also probes the
    deadline), and the deadline is additionally checked at every
    subset-size boundary. On exhaustion the enumerator does not fail — it
    returns the cheapest of a ladder of anytime candidates: the best full
    plan found so far, a {!greedy_complete} of the cheapest partial plan
    at each finalized subset size (read from the arrays, largest size
    first), and the FROM-order {!left_deep} fallback; the completions and
    the fallback are not charged. The candidate set only grows as the
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
    nested loop, sort-merge and hash; the paper's experiment restricts it
    to [[Nested_loop; Sort_merge]]. To enumerate under another estimator,
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

val plan_order :
  methods:Exec.Plan.join_method list -> Els.Profile.t -> string list -> node
(** Cost a left-deep order of tables, cheapest applicable method per step.
    @raise Invalid_argument on the empty list.
    @raise Els.Els_error.Error ([Invalid_query]) when a step has no
    applicable method. *)

(** {2 The shared step, for the other enumerators} *)

type space
(** One query's search space: per table the tables one join predicate
    and one equi-join away, its base and effective rows, the {!Cost}
    slots every edge is priced in, and the budget with the expansions
    charged to it. *)

val space :
  who:string ->
  ?methods:Exec.Plan.join_method list ->
  ?budget:Rel.Budget.t ->
  Els.Profile.t ->
  Query.t ->
  space
(** The query's tables, in FROM order; [methods] as in {!optimize}.
    @raise Invalid_argument (prefixed with [who]) on an empty FROM list
    or empty [methods]. *)

val expansions : space -> int
val boundary : space -> unit
(** Probe the budget's deadline without charging an expansion. *)

type path
(** An immutable left-deep plan: its join order by FROM position, each
    join's method, and the estimated sizes and cost. *)

val start : space -> int -> path
val smallest : space -> int
(** The table with the smallest effective cardinality, first on ties. *)

val path_cost : path -> float

val extend_in_order : space -> path -> int list -> path
(** Add each table of the order that the path lacks, in that order, with
    its cheapest applicable method (the first strict minimum in method
    order), charging every candidate.
    @raise Els.Els_error.Error ([Invalid_query]) when a step has no
    applicable method. *)

val greedy_complete : space -> path -> path * Rel.Budget.resource option
(** Greedy steps until the path holds every table: a step charges every
    applicable method of every absent table, keeps each table's first
    strict minimum, and adds the first strict minimum among the
    predicate-connected tables (among all when none connects).
    O(n²·methods). When the budget trips, the path of the last complete
    step and the tripped resource.
    @raise Els.Els_error.Error ([Invalid_query]) when no absent table has
    an applicable method. *)

val left_deep : space -> path -> path
(** {!extend_in_order} over the FROM order, charging neither the budget
    nor the expansion count: the bottom rung of every enumerator. *)

val node : space -> path -> node

type helper_stats = {
  levels : int;  (** split levels the helper ran to the end *)
  expansions : int;  (** their expansions *)
  steps : int;  (** their kernel steps *)
  minor_words : float;  (** words the helper allocated, aborts included *)
}

val helper_stats : unit -> helper_stats
(** The helper domain's totals since start-up. [Gc.minor_words] counts
    only the calling domain, so an allocation audit of a DP call adds the
    helper's [minor_words] delta to its own. *)
