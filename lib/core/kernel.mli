(** Compiled estimation kernels: the fast tier of step 6.

    Every estimation step of a prepared query (see {!Incremental}) runs
    here. Following the compile-don't-interpret idiom (a policy compiler
    flattening structure into flow tables), a kernel lowers everything the
    step loop needs into flat int/float arrays once, at {!Els.prepare}
    time:

    - equivalence-class roots interned as dense int ids — no [Cref.t] keys
      anywhere in the step loop; each comparison predicate gets a class of
      its own (the singleton grouping of {!Selectivity.group_by_class});
    - per-table join-predicate adjacency in CSR layout, each slot carrying
      the precomputed bitmask of the predicate's {e other} endpoint;
    - per-predicate join selectivities in one float array (guard-clamped
      at compile, exactly as {!Profile.join_selectivity} produces them);
    - the estimator's {!Estimator.combine} and {!Estimator.cap} arms, run
      as monomorphic cases over those arrays that fold exactly as
      {!Estimator.fold} and {!Estimator.bound} do — the degree arms over
      the terms of the step's bridging predicates, in ascending predicate
      order and oriented (already-joined side a, newly-joined side b);
      cap labels stay on the reference tier;
    - for the degree-statistics caps (LP2, DEGSEQ, ENT), each equality
      predicate's degree terms, computed once from the ANALYZE-collected
      degree sequences of its two columns, so a step only folds floats.

    Steps of every estimator record run with {e zero minor-heap
    allocation}: class accumulation uses stamped scratch arrays owned by
    the kernel, guard checks are inlined on the in-range path, and the
    [*_into] entry points keep every float inside one frame (no boxed
    returns). Only invariant {e breaches} leave the fast path, calling the
    shared {!Guard} so error messages, strictness semantics and violation
    counters stay identical to the reference tier.

    Every number a kernel produces is bit-identical to the list-scan
    reference tier in {!Incremental} (same fold shapes, same guard sites,
    same IEEE evaluation order) — enforced by the golden hex-float
    captures and the kernel = reference QCheck differentials.

    Kernels are compiled by {!Profile.kernel}; this module only owns the
    data layout and the step engine, so it stays independent of profile
    construction. Its compiled arrays are read-only; everything a step
    writes lives in a {!lane}. Every entry point but {!extend_into_slot}
    steps with the kernel's own lane and is single-threaded; exhaustive DP
    steps one kernel from two domains, each with a lane of its own. *)

type t

val make :
  rows:float array ->
  adj_off:int array ->
  adj_pred:int array ->
  adj_other_mask:int array ->
  pred_sel:float array ->
  pred_class:int array ->
  pred_mask_a:int array ->
  pred_mask_b:int array ->
  pred_degrees:(int * Stats.Degree.t * Stats.Degree.t) option array ->
  n_classes:int ->
  combine:Estimator.combine ->
  cap:Estimator.cap ->
  guard:Guard.t ->
  t
(** Assemble a kernel from compiled arrays (normally via
    {!Profile.kernel}, not directly):
    [rows.(bit)] is table [bit]'s effective cardinality ‖R‖′;
    [adj_off]/[adj_pred]/[adj_other_mask] is the CSR adjacency — table
    [bit]'s join predicates are slots [adj_off.(bit) .. adj_off.(bit+1)-1]
    in working-conjunction order, [adj_pred] the dense predicate index,
    [adj_other_mask] the bitmask of the predicate's other endpoint;
    [pred_sel]/[pred_class]/[pred_mask_a]/[pred_mask_b] are per-predicate
    (dense index, ascending conjunction order); [pred_degrees] is too when
    [cap] is a degree arm — the single-bit table mask of the predicate's
    left column and the degree statistics of its left and right columns,
    [None] when the predicate contributes no pair — and is empty
    otherwise. [make] computes each pair's terms here, once, in both
    orientations, and keeps only those.
    @raise Invalid_argument on inconsistent array lengths. *)

val steps : t -> int
(** Estimation steps executed through this kernel (extends, joins and
    step-selectivity probes), other lanes' once {!absorb}ed — the
    denominator of the allocations-per-step metric F12 and
    {!Harness.Obs_report} publish. *)

type lane
(** What a step writes: per-class scratch, float slots, a step count and
    a guard (of the kernel's strictness) that breaches count into. *)

val own : t -> lane
(** The kernel's own lane, whose guard is the profile's. *)

val lane : unit -> lane
(** An empty lane, for {!fit} to size. *)

val fit : lane -> t -> lane
(** [fit l k] is [l] if it can step [k] (scratch large enough, guard of
    [k]'s strictness), else a new lane for [k] allocated on the calling
    domain. *)

val lane_steps : lane -> int
(** Steps taken with the lane since it was last absorbed or discarded. *)

val absorb : t -> lane -> unit
(** Add the lane's step count and guard counts to the kernel's own (so
    {!steps} and the profile's guard report them) and zero the lane's. *)

val discard : lane -> unit
(** Zero the lane's counts: those of an attempt thrown away. *)

val step_selectivity : t -> mask:int -> bit:int -> float
(** Combined selectivity of joining table [bit] into the intermediate
    result [mask]: per-class accumulation in first-occurrence order,
    classes multiplied together — bit-identical to
    {!Incremental.step_selectivity_scan}. *)

val extend_size : t -> mask:int -> bit:int -> size:float -> float
(** Output cardinality of joining table [bit] into an intermediate result
    of [size] rows over [mask]: [size × ‖R‖′ × ∏ S_class], capped on
    predicate-connected steps, guarded against the cartesian upper bound
    (same sites and semantics as {!Incremental.extend_scan}). *)

val join_size :
  t -> mask1:int -> mask2:int -> size1:float -> size2:float -> float
(** {!extend_size} generalized to two intermediate results (bushy joins):
    one combined selectivity per class among the predicates bridging the
    two (disjoint) masks. Bit-identical to
    {!Incremental.join_states_scan}. *)

val start_into : t -> sizes:float array -> bit:int -> unit
(** [sizes.(1 lsl bit) <- ‖R‖′] — seed one single-table state of a DP
    size table indexed by mask. Allocation-free. *)

val extend_into : t -> sizes:float array -> mask:int -> bit:int -> unit
(** [sizes.(mask lor (1 lsl bit)) <- extend_size ~mask ~bit
    ~size:sizes.(mask)], with every float kept inside the call frame — the
    zero-allocation entry point (measured, not assumed: the F12
    experiment and the kernel test suite assert a 0 [Gc.minor_words]
    delta per step after warmup, for every estimator record). *)

val extend_into_slot :
  t -> lane -> mask:int -> bit:int -> io:float array -> src:int -> dst:int -> unit
(** [io.(dst) <- extend_size ~mask ~bit ~size:io.(src)], stepped with the
    given lane: {!extend_into} with the outer size read from, and the
    output size written to, slots of one caller-owned array, so a caller
    can price a candidate before deciding whether to keep it and needs no
    array indexed by mask. Every join enumerator extends a plan through
    it, via [Optimizer.Dp]'s edge step, once per (plan, table) edge;
    exhaustive DP first copies the mask's stored size into [io.(src)].
    Allocation-free in the same way. *)
