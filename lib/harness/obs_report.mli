(** Bridge from the pipeline's scattered statistics into one
    {!Obs.Metrics} registry.

    Each [absorb_*] publishes a component's counters under a stable
    dot-separated namespace, so one snapshot unifies what used to need
    five different printers:

    - ["profile.cache.*"] — {!Els.Profile.cache_stats} hit/miss counters
      of the per-predicate selectivity cache;
    - ["profile.kernel.steps"] — estimation steps served by the profile's
      compiled {!Els.Kernel};
    - ["profile.kernel.fallback_steps"] — steps replayed on the list-scan
      reference tier (derivation cards), 0 on every optimizer path;
    - ["guard.*"] — {!Els.Guard.stats} violations / repairs / fallbacks;
    - ["catalog.issues"], ["catalog.issue.<kind>"] —
      {!Catalog.Validate} findings per issue kind;
    - ["exec.*"] — {!Exec.Counters} work counters;
    - ["budget.*"] — {!Rel.Budget} usage and exhaustion;
    - ["optimizer.*"] — {!Optimizer.Provenance} rung / expansions /
      degradations;
    - ["trial.*"] — per-{!Runner.trial} elapsed-time and result-size
      histograms.

    All absorption is additive ([Obs.Metrics.incr]), so one registry can
    accumulate across many profiles/trials (the soak and accuracy
    harnesses do exactly that); sources are expected to be fresh per
    absorption, as every profile, budget and counter set in this codebase
    is. *)

val absorb_profile : Obs.Metrics.t -> Els.Profile.t -> unit
(** Cache stats, kernel step count, guard stats and validation issues of
    one built profile. *)

val absorb_counters : Obs.Metrics.t -> Exec.Counters.t -> unit
val absorb_budget : Obs.Metrics.t -> Rel.Budget.t -> unit

val absorb_choice : Obs.Metrics.t -> Optimizer.choice -> unit
(** Profile + provenance of one optimizer decision. *)

val absorb_trial : Obs.Metrics.t -> Runner.trial -> unit
(** Work, elapsed time, result size and provenance of one executed
    trial. *)

val absorb_store : Obs.Metrics.t -> Catalog.Store.t -> unit
(** Lifecycle counters (["store.*"]: epoch, publishes, failed audits,
    quarantines, stale serves, retries, hard fallbacks, streamed deltas)
    plus per-table drift gauges
    (["store.drift.<table>.rows_since_analyze"/".d_drift"]) of one
    {!Catalog.Store}. Totals use the max-absorbing counter setter, so
    snapshotting the same store repeatedly never double-counts. *)
