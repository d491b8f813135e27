type corruption =
  | Drop_stats
  | Negative_rows
  | Zero_rows
  | Distinct_exceeds_rows
  | Nan_histogram
  | Shuffled_histogram
  | Mcv_overflow
  | Inverted_bounds
  | Stale_stats
  | Stale_epoch_pin
  | Torn_merge
  | Drift_beyond_threshold

let all =
  [
    Drop_stats; Negative_rows; Zero_rows; Distinct_exceeds_rows; Nan_histogram;
    Shuffled_histogram; Mcv_overflow; Inverted_bounds; Stale_stats;
    Stale_epoch_pin; Torn_merge; Drift_beyond_threshold;
  ]

let name = function
  | Drop_stats -> "drop-stats"
  | Negative_rows -> "negative-rows"
  | Zero_rows -> "zero-rows"
  | Distinct_exceeds_rows -> "distinct>rows"
  | Nan_histogram -> "nan-histogram"
  | Shuffled_histogram -> "shuffled-histogram"
  | Mcv_overflow -> "mcv-overflow"
  | Inverted_bounds -> "inverted-bounds"
  | Stale_stats -> "stale-stats"
  | Stale_epoch_pin -> "stale-epoch-pin"
  | Torn_merge -> "torn-merge"
  | Drift_beyond_threshold -> "drift"

let column_level = function
  | Drop_stats | Distinct_exceeds_rows | Nan_histogram | Shuffled_histogram
  | Mcv_overflow | Inverted_bounds | Torn_merge | Drift_beyond_threshold ->
    true
  | Negative_rows | Zero_rows | Stale_stats | Stale_epoch_pin -> false

(* --- corrupting statistics ---------------------------------------------

   Each kind produces a corruption unconditionally: when the target sketch
   is absent a corrupt one is synthesized, so every kind is guaranteed to
   actually fire against every column it is aimed at. *)

let nan_bucket =
  { Stats.Histogram.lo = Float.nan; hi = Float.nan; count = Float.nan;
    distinct = Float.nan }

let corrupt_histogram kind h =
  match kind with
  | Nan_histogram ->
    let buckets =
      match h with
      | Some h ->
        List.map
          (fun b -> { b with Stats.Histogram.count = Float.nan })
          (Stats.Histogram.buckets h)
      | None -> [ nan_bucket ]
    in
    Some (Stats.Histogram.of_buckets Stats.Histogram.Equi_width buckets)
  | Shuffled_histogram ->
    let buckets =
      match h with
      | Some h ->
        (* Reverse the bucket order and swap each bucket's bounds: the
           result is decreasing where a histogram must be increasing. *)
        List.rev_map
          (fun b ->
            { b with Stats.Histogram.lo = b.Stats.Histogram.hi;
              hi = b.Stats.Histogram.lo })
          (Stats.Histogram.buckets h)
      | None ->
        [
          { Stats.Histogram.lo = 100.; hi = 50.; count = 10.; distinct = 5. };
          { Stats.Histogram.lo = 40.; hi = 10.; count = 10.; distinct = 5. };
        ]
    in
    Some (Stats.Histogram.of_buckets Stats.Histogram.Equi_width buckets)
  | Torn_merge ->
    (* A merge that concatenated shard buckets without coalescing: every
       bucket appears twice, so the bounds are not monotone. A degenerate
       single-point histogram survives doubling; give it overlapping
       synthetic buckets instead so the kind always fires. *)
    let doubled =
      match h with
      | Some h ->
        let bs = Stats.Histogram.buckets h in
        bs @ bs
      | None -> []
    in
    let rec monotone = function
      | a :: (b :: _ as rest) ->
        a.Stats.Histogram.hi <= b.Stats.Histogram.lo && monotone rest
      | [ _ ] | [] -> true
    in
    let buckets =
      if doubled <> [] && not (monotone doubled) then doubled
      else
        [
          { Stats.Histogram.lo = 1.; hi = 10.; count = 10.; distinct = 5. };
          { Stats.Histogram.lo = 5.; hi = 20.; count = 10.; distinct = 5. };
        ]
    in
    Some (Stats.Histogram.of_buckets Stats.Histogram.Equi_depth buckets)
  | _ -> h

let corrupt_column kind rows (s : Stats.Col_stats.t) =
  match kind with
  | Distinct_exceeds_rows -> { s with distinct = (10 * max 1 rows) + 7 }
  | Nan_histogram | Shuffled_histogram | Torn_merge ->
    { s with histogram = corrupt_histogram kind s.histogram }
  | Drift_beyond_threshold ->
    (* Statistics frozen long before a stream of inserts: the recorded
       distinct count stays tiny while the sketch (re-fed by the delta
       path) remembers far more values. When the column never had a
       sketch, synthesize one so the drift audit always has its
       independent measurement. *)
    let sketch =
      match s.distinct_sketch with
      | Some sk -> sk
      | None ->
        Stats.Hll.of_values
          (Array.init 64 (fun i -> Rel.Value.Int (i + 1)))
    in
    { s with distinct = 0; distinct_sketch = Some sketch }
  | Mcv_overflow ->
    let entries =
      match s.mcv with
      | Some m ->
        (* Inflate every fraction so the sum comfortably exceeds 1. *)
        List.map
          (fun e -> { e with Stats.Mcv.fraction = e.Stats.Mcv.fraction +. 0.7 })
          (Stats.Mcv.entries m)
      | None ->
        [
          { Stats.Mcv.value = Rel.Value.Int 1; fraction = 0.8 };
          { Stats.Mcv.value = Rel.Value.Int 2; fraction = 0.9 };
        ]
    in
    { s with mcv = Some (Stats.Mcv.of_entries entries) }
  | Inverted_bounds ->
    let lo, hi =
      match s.min_value, s.max_value with
      | Some lo, Some hi when Rel.Value.compare lo hi < 0 -> (hi, lo)
      | _ -> (Rel.Value.Int 1000, Rel.Value.Int (-1000))
    in
    { s with min_value = Some lo; max_value = Some hi }
  | Drop_stats | Negative_rows | Zero_rows | Stale_stats | Stale_epoch_pin -> s

let corrupt_table ?columns kind (t : Catalog.Table.t) =
  let touch name =
    match columns with
    | None -> true
    | Some cs -> List.mem name cs
  in
  match kind with
  | Negative_rows -> { t with row_count = -abs t.row_count - 1 }
  | Zero_rows -> { t with row_count = 0 }
  | Stale_stats ->
    (* Simulates statistics collected before the data was regenerated:
       the stored relation keeps its rows, the catalog number drifts. *)
    { t with row_count = (3 * max 1 t.row_count) + 11 }
  | Stale_epoch_pin ->
    (* A reader holding an epoch pinned across data growth: the stored
       relation has moved on (here: doubled) while the pinned statistics
       still describe the old world. With no stored data to diverge from,
       degrade to the plain stale-row-count shape. *)
    begin
      match t.data with
      | Some rel ->
        let tuples = Rel.Relation.to_list rel in
        { t with
          data =
            Some
              (Rel.Relation.of_tuples (Rel.Relation.schema rel)
                 (tuples @ tuples)) }
      | None -> { t with row_count = (2 * max 1 t.row_count) + 13 }
    end
  | Drop_stats ->
    { t with
      column_stats = List.filter (fun (n, _) -> not (touch n)) t.column_stats }
  | Distinct_exceeds_rows | Nan_histogram | Shuffled_histogram | Mcv_overflow
  | Inverted_bounds | Torn_merge | Drift_beyond_threshold ->
    { t with
      column_stats =
        List.map
          (fun (n, s) ->
            if touch n then (n, corrupt_column kind t.row_count s) else (n, s))
          t.column_stats }

let corrupt_db ?tables ?columns kind db =
  let touch name =
    match tables with
    | None -> true
    | Some ts -> List.mem name ts
  in
  let out = Catalog.Db.create () in
  List.iter
    (fun (t : Catalog.Table.t) ->
      Catalog.Db.add out
        (if touch t.name then corrupt_table ?columns kind t else t))
    (Catalog.Db.tables db);
  out

(* --- the pipeline under test ------------------------------------------- *)

let default_sql =
  "SELECT COUNT(*) FROM t1, t2, t3 WHERE t1.a = t2.a AND t2.a = t3.a AND \
   t1.b <= 25"

(* The comparison-join leg of the matrix: same catalog, but the last link
   is an inequality, so every corruption also crosses the CDF-convolution
   estimator and the kernel's comparison-join lowering. *)
let inequality_sql =
  "SELECT COUNT(*) FROM t1, t2, t3 WHERE t1.a = t2.a AND t2.a < t3.a AND \
   t1.b <= 25"

let base_histogram = Stats.Histogram.Equi_depth
let base_mcv = 5

let base_db ?(seed = 7) () =
  let rng = Datagen.Prng.create seed in
  let db = Catalog.Db.create () in
  let register table rows distinct =
    ignore
      (Datagen.Tablegen.register ~histogram:base_histogram ~mcv:base_mcv
         (Datagen.Prng.split rng) db ~table ~rows
         [
           Datagen.Tablegen.column "a" ~distinct;
           Datagen.Tablegen.column "b" ~distinct:50;
         ])
  in
  register "t1" 300 40;
  register "t2" 500 60;
  register "t3" 200 30;
  db

type status =
  | Estimated of float
  | Degraded of Els.Els_error.t
  | Crashed of string

type outcome = {
  corruption : corruption option;
  strictness : Catalog.Validate.strictness;
  algorithm : string;
  status : status;
  violations : int;
  repairs : int;
  fallbacks : int;
  budget_tripped : Rel.Budget.resource option;
}

let zero_outcome ?budget_tripped corruption strictness algorithm status =
  {
    corruption;
    strictness;
    algorithm;
    status;
    violations = 0;
    repairs = 0;
    fallbacks = 0;
    budget_tripped;
  }

(* SQL text → binder → profile (validation + guards) → DP optimizer →
   final estimate. Structured errors are the expected degradation;
   anything escaping as a raw exception is a crash. A budget trip is also
   expected degradation: the optimizer absorbs it via its anytime ladder,
   so it shows up through [Rel.Budget.exhausted], not as an error. *)
let drive ?budget ~config db sql =
  match Sqlfront.Binder.compile_result db sql with
  | Error e -> `No_profile (Degraded e)
  | Ok query -> begin
    match
      Optimizer.choose ~enumerator:Optimizer.Exhaustive ?budget config db
        query
    with
    | exception Els.Els_error.Error e -> `No_profile (Degraded e)
    | exception exn -> `No_profile (Crashed (Printexc.to_string exn))
    | choice ->
      let profile = choice.Optimizer.profile in
      let status =
        let final =
          match List.rev choice.Optimizer.intermediate_estimates with
          | last :: _ -> last
          | [] -> 0.
        in
        let bad x = Float.is_nan x || x < 0. || x = Float.infinity in
        if
          bad final
          || List.exists bad choice.Optimizer.intermediate_estimates
          || bad choice.Optimizer.estimated_cost
        then
          Degraded
            (Els.Els_error.Invariant_violation
               { site = "Fault.drive";
                 detail = "optimizer produced a non-finite or negative \
                           estimate" })
        else Estimated final
      in
      `Profiled (status, profile)
  end

let outcome_of ?(estimator = Els.Estimator.ls) ?budget ~strictness corruption
    db sql =
  let config =
    Els.Config.with_strictness strictness (Els.Config.of_estimator estimator)
  in
  let algorithm = Els.Estimator.label estimator in
  let tripped () = Option.bind budget Rel.Budget.exhausted in
  match drive ?budget ~config db sql with
  | `No_profile status ->
    zero_outcome ?budget_tripped:(tripped ()) corruption strictness algorithm
      status
  | `Profiled (status, profile) ->
    let g = Els.Profile.guard_stats profile in
    {
      corruption;
      strictness;
      algorithm;
      status;
      violations = g.Els.Guard.violations;
      repairs = g.Els.Guard.repairs;
      fallbacks = g.Els.Guard.fallbacks;
      budget_tripped = tripped ();
    }

let run ?seed ?sql ?(estimators = Els.Estimator.registry ()) ?make_budget
    ~strictness () =
  let clean = base_db ?seed () in
  let budget () = Option.map (fun f -> f ()) make_budget in
  let sqls =
    match sql with
    | Some sql -> [ sql ]
    | None -> [ default_sql; inequality_sql ]
  in
  List.concat_map
    (fun sql ->
      List.concat_map
        (fun estimator ->
          let baseline =
            outcome_of ~estimator ?budget:(budget ()) ~strictness None clean
              sql
          in
          baseline
          :: List.map
               (fun kind ->
                 outcome_of ~estimator ?budget:(budget ()) ~strictness
                   (Some kind) (corrupt_db kind clean) sql)
               all)
        estimators)
    sqls

(* An outcome is acceptable when the pipeline neither crashed nor let an
   impossible number escape; under Repair and Trap every injected
   corruption must additionally be visible in the counters (detected
   validation issue, clamped value, or counted fallback) — unless the
   budget tripped first, in which case the truncated enumeration is the
   documented degradation. *)
let acceptable o =
  let well_formed =
    match o.status with
    | Crashed _ -> false
    | Degraded _ -> true
    | Estimated x -> Float.is_finite x && x >= 0.
  in
  let strict_estimates_clean =
    (* Strict mode may refuse (Degraded) but must never emit a number
       after swallowing a violation. *)
    match o.strictness, o.status with
    | Catalog.Validate.Strict, Estimated _ -> o.violations = 0
    | _ -> true
  in
  let counted =
    match o.corruption, o.strictness with
    | None, _ -> true
    | Some _, Catalog.Validate.Strict -> true
    | Some _, (Catalog.Validate.Repair | Catalog.Validate.Trap) ->
      o.violations + o.repairs + o.fallbacks > 0 || o.budget_tripped <> None
  in
  well_formed && strict_estimates_clean && counted

let all_pass outcomes = List.for_all acceptable outcomes

let budget_trips outcomes =
  List.length (List.filter (fun o -> o.budget_tripped <> None) outcomes)

let metrics outcomes =
  let m = Obs.Metrics.create () in
  let c name by = Obs.Metrics.incr ~by (Obs.Metrics.counter m name) in
  List.iter
    (fun o ->
      c "fault.outcomes" 1;
      (match o.status with
      | Estimated _ -> c "fault.estimated" 1
      | Degraded _ -> c "fault.degraded" 1
      | Crashed _ -> c "fault.crashed" 1);
      c "guard.violations" o.violations;
      c "guard.repairs" o.repairs;
      c "guard.fallbacks" o.fallbacks;
      if o.budget_tripped <> None then c "budget.exhausted" 1)
    outcomes;
  Obs.Metrics.snapshot m

let status_cell = function
  | Estimated x -> Printf.sprintf "ok %s" (Report.float_cell x)
  | Degraded e -> "degraded: " ^ Els.Els_error.to_string e
  | Crashed msg -> "CRASH: " ^ msg

let render outcomes =
  Report.table
    ~header:
      [
        "corruption"; "mode"; "estimator"; "outcome"; "viol"; "repair";
        "fallback"; "budget"; "pass";
      ]
    (List.map
       (fun o ->
         [
           (match o.corruption with None -> "(clean)" | Some k -> name k);
           Catalog.Validate.strictness_name o.strictness;
           o.algorithm;
           status_cell o.status;
           string_of_int o.violations;
           string_of_int o.repairs;
           string_of_int o.fallbacks;
           (match o.budget_tripped with
           | None -> "-"
           | Some r -> Rel.Budget.resource_name r);
           (if acceptable o then "yes" else "NO");
         ])
       outcomes)
