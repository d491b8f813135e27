module Metrics = Obs.Metrics

let c m name by = Metrics.incr ~by (Metrics.counter m name)

let absorb_guard_stats m (g : Els.Guard.stats) =
  c m "guard.violations" g.Els.Guard.violations;
  c m "guard.repairs" g.Els.Guard.repairs;
  c m "guard.fallbacks" g.Els.Guard.fallbacks

let absorb_validation m issues =
  c m "catalog.issues" (List.length issues);
  List.iter
    (fun issue ->
      c m
        ("catalog.issue." ^ Catalog.Validate.kind_name issue.Catalog.Validate.kind)
        1)
    issues

let absorb_profile m profile =
  let s = Els.Profile.cache_stats profile in
  c m "profile.cache.sel_hits" s.Els.Profile.sel_hits;
  c m "profile.cache.sel_misses" s.Els.Profile.sel_misses;
  Metrics.set_counter
    (Metrics.counter m "profile.kernel.steps")
    (Els.Profile.kernel_steps profile);
  (* Steps replayed on the list-scan reference tier (derivation cards):
     0 on every optimizer path. *)
  Metrics.set_counter
    (Metrics.counter m "profile.kernel.fallback_steps")
    (Els.Profile.kernel_fallback_steps profile);
  absorb_guard_stats m (Els.Profile.guard_stats profile);
  absorb_validation m (Els.Profile.validation_issues profile)

let absorb_counters m (k : Exec.Counters.t) =
  c m "exec.tuples_read" k.Exec.Counters.tuples_read;
  c m "exec.comparisons" k.Exec.Counters.comparisons;
  c m "exec.tuples_output" k.Exec.Counters.tuples_output;
  c m "exec.work" (Exec.Counters.total_work k)

let absorb_budget m budget =
  c m "budget.nodes_used" (Rel.Budget.nodes_used budget);
  c m "budget.rows_used" (Rel.Budget.rows_used budget);
  match Rel.Budget.exhausted budget with
  | Some resource ->
    c m "budget.exhausted" 1;
    c m ("budget.exhausted." ^ Rel.Budget.resource_name resource) 1
  | None -> ()

let absorb_provenance m (p : Optimizer.Provenance.t) =
  c m "optimizer.plans" 1;
  c m
    ("optimizer.rung." ^ Optimizer.Provenance.rung_name p.Optimizer.Provenance.rung)
    1;
  c m "optimizer.expansions" p.Optimizer.Provenance.expansions;
  if p.Optimizer.Provenance.exhausted <> None then c m "optimizer.degraded" 1

let absorb_choice m choice =
  absorb_profile m choice.Optimizer.profile;
  absorb_provenance m choice.Optimizer.provenance

let absorb_store m store =
  let s = Catalog.Store.stats store in
  (* Lifecycle totals are monotone over the store's life: absorb with the
     max-absorbing setter so repeated snapshots of one store don't
     double-count. *)
  let set name v = Metrics.set_counter (Metrics.counter m name) v in
  set "store.epoch" s.Catalog.Store.epoch;
  set "store.publishes" s.Catalog.Store.publishes;
  set "store.audits_failed" s.Catalog.Store.audits_failed;
  set "store.quarantines" s.Catalog.Store.quarantines;
  set "store.stale_served" s.Catalog.Store.stale_served;
  set "store.retries" s.Catalog.Store.retries;
  set "store.retry_successes" s.Catalog.Store.retry_successes;
  set "store.hard_fallbacks" s.Catalog.Store.hard_fallbacks;
  set "store.delta_inserts" s.Catalog.Store.delta_inserts;
  set "store.delta_deletes" s.Catalog.Store.delta_deletes;
  Metrics.set
    (Metrics.gauge m "store.quarantined_now")
    (float_of_int s.Catalog.Store.quarantined_now);
  List.iter
    (fun (table, d) ->
      Metrics.set
        (Metrics.gauge m (Printf.sprintf "store.drift.%s.rows_since_analyze" table))
        (float_of_int d.Catalog.Store.rows_since_analyze);
      Metrics.set
        (Metrics.gauge m (Printf.sprintf "store.drift.%s.d_drift" table))
        d.Catalog.Store.d_drift)
    (Catalog.Store.drift store)

let absorb_trial m (trial : Runner.trial) =
  c m "trial.count" 1;
  c m "exec.work" trial.Runner.work;
  Metrics.observe (Metrics.histogram m "trial.elapsed_s") trial.Runner.elapsed_s;
  Metrics.observe
    (Metrics.histogram m "trial.result_rows")
    (float_of_int trial.Runner.result_rows);
  absorb_provenance m trial.Runner.provenance
