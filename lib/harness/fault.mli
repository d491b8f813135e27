(** Experiment F9: fault injection across the estimation pipeline.

    Systematically corrupts a known-good catalog — dropped statistics,
    negative/zero/stale row counts, impossible distinct counts, NaN and
    non-monotone histograms, overflowing MCV sketches, inverted value
    bounds — and drives the {e full} pipeline (SQL text through the
    binder, catalog validation, profile build with invariant guards, and
    the DP optimizer) under each {!Catalog.Validate.strictness} mode.

    The contract being tested: the pipeline never crashes with a raw
    exception, never lets a NaN/negative/infinite estimate escape in
    [Repair] mode, and every degradation is visible in the guard counters
    (a detected issue, a clamped value, or a counted fallback) — garbage
    in, {e documented} garbage handling out. *)

type corruption =
  | Drop_stats  (** remove per-column statistics entirely *)
  | Negative_rows
  | Zero_rows
  | Distinct_exceeds_rows  (** d := 10·‖R‖ + 7 *)
  | Nan_histogram
  | Shuffled_histogram  (** reversed, non-monotone bucket bounds *)
  | Mcv_overflow  (** fractions inflated so the sum exceeds 1 *)
  | Inverted_bounds  (** min/max swapped *)
  | Stale_stats
      (** catalog row count drifted away from the stored relation, as if
          the data was regenerated after ANALYZE *)
  | Stale_epoch_pin
      (** the stored relation doubled under a pinned epoch's statistics —
          the churn-era shape of staleness (stats-only tables degrade to a
          plain stale row count) *)
  | Torn_merge
      (** shard histograms concatenated without coalescing: every bucket
          twice, bounds non-monotone — a merge interrupted halfway *)
  | Drift_beyond_threshold
      (** recorded distinct count zeroed while the distinct sketch still
          remembers the column — d-drift past the {!Catalog.Validate}
          audit threshold *)

val all : corruption list
val name : corruption -> string

val column_level : corruption -> bool
(** Kinds that corrupt per-column statistics (and therefore respect the
    [?columns] filter) as opposed to table-level row counts. *)

val corrupt_table :
  ?columns:string list -> corruption -> Catalog.Table.t -> Catalog.Table.t
(** Apply one corruption; [columns] restricts column-level kinds to the
    named columns (default: all). Every kind fires unconditionally — when
    a targeted sketch is absent, a corrupt one is synthesized. *)

val corrupt_db :
  ?tables:string list ->
  ?columns:string list ->
  corruption ->
  Catalog.Db.t ->
  Catalog.Db.t
(** Fresh catalog with the corruption applied to the selected tables
    (default: all); the input is untouched. *)

val default_sql : string
(** The 3-table equality chain query (with a local predicate) the suite
    drives. *)

val inequality_sql : string
(** The comparison-join leg: the same chain with its last link turned
    into [t2.a < t3.a], crossing every corruption with the CDF-convolution
    selectivity path and the kernel's comparison-join lowering. *)

val base_db : ?seed:int -> unit -> Catalog.Db.t
(** Three stored, fully-analyzed chain tables (histograms of kind
    {!base_histogram} and MCV sketches of {!base_mcv} values on every
    column), the clean baseline every corruption starts from. *)

val base_histogram : Stats.Histogram.kind
(** [Equi_depth]. *)

val base_mcv : int
(** 5. A server over {!base_db} re-ANALYZEs with these two options. *)

type status =
  | Estimated of float  (** pipeline produced a final estimate *)
  | Degraded of Els.Els_error.t  (** refused with a structured error *)
  | Crashed of string  (** uncaught exception — always a failure *)

type outcome = {
  corruption : corruption option;  (** [None] for the clean baseline *)
  strictness : Catalog.Validate.strictness;
  algorithm : string;  (** the driving estimator's {!Els.Estimator.label} *)
  status : status;
  violations : int;
  repairs : int;
  fallbacks : int;
  budget_tripped : Rel.Budget.resource option;
      (** set when the per-outcome {!Rel.Budget} tripped during
          optimization — an expected degradation (the optimizer's anytime
          ladder absorbed it), not a failure *)
}

val run :
  ?seed:int ->
  ?sql:string ->
  ?estimators:Els.Estimator.t list ->
  ?make_budget:(unit -> Rel.Budget.t) ->
  strictness:Catalog.Validate.strictness ->
  unit ->
  outcome list
(** Per driven query ([sql] forces a single query; the default drives
    both {!default_sql} and {!inequality_sql}) and per estimator
    ([estimators] defaults to the full {!Els.Estimator.registry}): the
    clean baseline followed by one outcome per corruption kind in {!all},
    each applied to every table and column of {!base_db} — the robustness
    contract must hold for every registry estimator, not just ELS.
    [make_budget] produces a {e fresh} budget per outcome (budgets are
    sticky, so they cannot be shared), crossing the corruption grid with
    resource exhaustion. *)

val acceptable : outcome -> bool
(** No crash; estimates (when produced) finite and non-negative; under
    [Repair]/[Trap] every injected corruption shows up in the counters
    unless the budget tripped first (a trip is documented degradation);
    under [Strict] an estimate is only produced when nothing was
    swallowed. *)

val all_pass : outcome list -> bool

val budget_trips : outcome list -> int
(** How many outcomes had their budget trip — reported in the F9
    summary. *)

val metrics : outcome list -> Obs.Metrics.snapshot
(** The grid's guard counters, outcome statuses and budget trips as one
    {!Obs.Metrics} snapshot (["fault.*"], ["guard.*"],
    ["budget.exhausted"]). *)

val render : outcome list -> string
