type summary = {
  iterations : int;
  seed : int;
  inserts : int;
  deletes : int;
  reanalyzes : int;
  sharded_reanalyzes : int;
  corruptions : int;
  publishes : int;
  epoch_regressions : int;
  pinned_checks : int;
  pinned_divergences : int;
  annotated_cards : int;
  missing_annotations : int;
  q_checks : int;
  median_q_error : float;
  q_tolerance : float;
  crashes : int;
  first_failure : string option;
  store : Catalog.Store.counters;
  elapsed_s : float;
  metrics : Obs.Metrics.snapshot;
}

let tables = [ "t1"; "t2"; "t3" ]

(* Corruption kinds that a *stats-only* staged table can actually exhibit:
   the data-dependent kinds (stale row counts against stored data) have
   nothing to disagree with once the relation is stripped. *)
let staged_corruptions =
  [
    Fault.Negative_rows; Fault.Distinct_exceeds_rows; Fault.Nan_histogram;
    Fault.Shuffled_histogram; Fault.Mcv_overflow; Fault.Inverted_bounds;
    Fault.Torn_merge; Fault.Drift_beyond_threshold;
  ]

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  nn = 0 || go 0

let median = function
  | [] -> 1.
  | xs ->
    let arr = Array.of_list xs in
    Array.sort Float.compare arr;
    let n = Array.length arr in
    if n mod 2 = 1 then arr.(n / 2)
    else (arr.((n / 2) - 1) +. arr.(n / 2)) /. 2.

let run ?(seed = 1) ?(q_tolerance = 3.) ~iters () =
  let rng = Rel.Prng.create seed in
  let t_start = Unix.gettimeofday () in
  let db = Fault.base_db () in
  let store =
    Catalog.Store.create ~strictness:Catalog.Validate.Repair
      ~histogram:Stats.Histogram.Equi_depth ~mcv:5 db
  in
  let config =
    Els.Config.with_strictness Catalog.Validate.Repair Els.Config.els
  in
  let query =
    match Sqlfront.Binder.compile_result db Fault.default_sql with
    | Ok q -> q
    | Error e ->
      invalid_arg ("Churn.run: default query rejected: "
                   ^ Els.Els_error.to_string e)
  in
  let order = tables in
  let metrics = Obs.Metrics.create () in
  let inserts = ref 0 and deletes = ref 0 in
  let reanalyzes = ref 0 and sharded = ref 0 in
  let corruptions = ref 0 and publishes = ref 0 in
  let epoch_regressions = ref 0 in
  let pinned_checks = ref 0 and pinned_divergences = ref 0 in
  let annotated_cards = ref 0 and missing_annotations = ref 0 in
  let q_errors = ref [] in
  let crashes = ref 0 in
  let first_failure = ref None in
  let fail iter scenario what =
    if !first_failure = None then
      first_failure :=
        Some
          (Printf.sprintf
             "iter %d | %s | %s | repro: elsdb churn --seed %d --iters %d"
             iter what scenario seed iter)
  in
  let estimate_epoch ?sink epoch =
    let profile = Els.prepare_epoch config epoch query in
    let size =
      match sink with
      | Some d -> (Els.Incremental.derive profile d order).Els.Incremental.size
      | None -> Els.Incremental.final_size profile order
    in
    Obs_report.absorb_profile metrics profile;
    size
  in
  (* The drift baseline: what this estimate would be if every table were
     bulk-ANALYZEd from the live data right now, same options, same
     config, same order. *)
  let baseline_estimate () =
    let fresh = Catalog.Db.create () in
    List.iter
      (fun name ->
        ignore
          (Catalog.Analyze.register ~histogram:Stats.Histogram.Equi_depth
             ~mcv:5 fresh ~name
             (Catalog.Store.live store ~table:name)
            : Catalog.Table.t))
      tables;
    Els.estimate config fresh query order
  in
  (* Publish with the torn-read probe wrapped around it: the estimate from
     the previously pinned epoch must be bit-identical after the swap. *)
  let publish_checked iter scenario =
    let pinned = Catalog.Store.pin store in
    let before = estimate_epoch pinned in
    incr pinned_checks;
    (match Catalog.Store.publish store with
    | Ok next ->
      incr publishes;
      if Catalog.Epoch.id next <= Catalog.Epoch.id pinned then begin
        incr epoch_regressions;
        fail iter scenario
          (Printf.sprintf "epoch id regressed (%d after %d)"
             (Catalog.Epoch.id next) (Catalog.Epoch.id pinned))
      end
    | Error _ ->
      (* Only the Strict hard-fallback rung refuses; this store runs
         Repair, so a refusal here is an assertion failure. *)
      fail iter scenario "publish refused under Repair strictness");
    let after = estimate_epoch pinned in
    if not (Float.equal before after) then begin
      incr pinned_divergences;
      fail iter scenario
        (Printf.sprintf "torn read: pinned estimate %h became %h" before
           after)
    end
  in
  let random_rows st n =
    (* Rows in the generator's value domains, so inserts look like organic
       growth rather than outliers. *)
    List.init n (fun _ ->
        [
          Rel.Value.Int (Rel.Prng.int_in st 1 80);
          Rel.Value.Int (Rel.Prng.int_in st 1 50);
        ])
  in
  for iter = 1 to iters do
    let table = List.nth tables (Rel.Prng.int rng (List.length tables)) in
    let op = Rel.Prng.int rng 5 in
    let live_rows =
      Rel.Relation.cardinality (Catalog.Store.live store ~table)
    in
    (* Deleting from a table that churned small would drain it; grow it
       back instead so estimates keep meaning something. *)
    let op = if op = 1 && live_rows < 50 then 0 else op in
    let scenario =
      match op with
      | 0 -> Printf.sprintf "insert %s" table
      | 1 -> Printf.sprintf "delete %s" table
      | 2 -> Printf.sprintf "reanalyze %s" table
      | 3 -> Printf.sprintf "corrupt+publish %s" table
      | _ -> "publish"
    in
    match
      (match op with
      | 0 ->
        let n = Rel.Prng.int_in rng 1 30 in
        Catalog.Store.insert store ~table (random_rows rng n);
        inserts := !inserts + n
      | 1 ->
        let n = Rel.Prng.int_in rng 1 20 in
        let indices =
          List.init n (fun _ -> Rel.Prng.int rng (max 1 live_rows))
        in
        Catalog.Store.delete store ~table ~indices;
        deletes := !deletes + List.length (List.sort_uniq Int.compare indices)
      | 2 ->
        let shards = Rel.Prng.int_in rng 1 4 in
        Catalog.Store.reanalyze ~shards store ~table;
        incr reanalyzes;
        if shards > 1 then incr sharded;
        publish_checked iter scenario
      | 3 ->
        let kind =
          List.nth staged_corruptions
            (Rel.Prng.int rng (List.length staged_corruptions))
        in
        Catalog.Store.corrupt_staged store ~table
          (Fault.corrupt_table kind);
        incr corruptions;
        publish_checked iter scenario;
        (* The degradation must be visible end to end: the epoch carries
           the staleness note and a derivation card prepared against it
           prints it. *)
        let epoch = Catalog.Store.pin store in
        if
          List.for_all
            (fun t -> Catalog.Epoch.annotations_for epoch t = [])
            tables
        then begin
          incr missing_annotations;
          fail iter scenario "corrupted publish left no epoch annotation"
        end
        else begin
          let sink = Obs.Derivation.create () in
          ignore (estimate_epoch ~sink epoch : float);
          let card = Format.asprintf "%a" Obs.Derivation.pp_card sink in
          if contains card "note:" then incr annotated_cards
          else begin
            incr missing_annotations;
            fail iter scenario "derivation card missing the staleness note"
          end
        end
      | _ -> publish_checked iter scenario);
      (* Drift probe: the published epoch vs a fresh bulk ANALYZE. *)
      let est = estimate_epoch (Catalog.Store.pin store) in
      let base = baseline_estimate () in
      match Accuracy.q_error ~est ~truth:base with
      | Accuracy.Finite q -> q_errors := q :: !q_errors
      | Accuracy.Infinite | Accuracy.Undefined ->
        (* Zero-vs-nonzero estimates under churn: record the worst finite
           bucket so the median still feels it. *)
        q_errors := (q_tolerance *. 10.) :: !q_errors
    with
    | () -> ()
    | exception exn ->
      incr crashes;
      fail iter scenario ("crash: " ^ Printexc.to_string exn)
  done;
  Obs_report.absorb_store metrics store;
  {
    iterations = iters;
    seed;
    inserts = !inserts;
    deletes = !deletes;
    reanalyzes = !reanalyzes;
    sharded_reanalyzes = !sharded;
    corruptions = !corruptions;
    publishes = !publishes;
    epoch_regressions = !epoch_regressions;
    pinned_checks = !pinned_checks;
    pinned_divergences = !pinned_divergences;
    annotated_cards = !annotated_cards;
    missing_annotations = !missing_annotations;
    q_checks = List.length !q_errors;
    median_q_error = median !q_errors;
    q_tolerance;
    crashes = !crashes;
    first_failure = !first_failure;
    store = Catalog.Store.stats store;
    elapsed_s = Unix.gettimeofday () -. t_start;
    metrics = Obs.Metrics.snapshot metrics;
  }

let pass s =
  s.crashes = 0 && s.epoch_regressions = 0 && s.pinned_divergences = 0
  && s.missing_annotations = 0
  && s.median_q_error <= s.q_tolerance
  && (s.corruptions = 0 || s.store.Catalog.Store.audits_failed > 0)

let render s =
  let b = Buffer.create 512 in
  let line fmt =
    Printf.ksprintf (fun l -> Buffer.add_string b (l ^ "\n")) fmt
  in
  line "churn: %d iterations (seed %d) in %.2fs" s.iterations s.seed
    s.elapsed_s;
  line "  streamed:              +%d / -%d rows" s.inserts s.deletes;
  line "  re-analyzes:           %d (%d partitioned)" s.reanalyzes
    s.sharded_reanalyzes;
  line "  publishes:             %d (epoch %d, %d regressions)" s.publishes
    s.store.Catalog.Store.epoch s.epoch_regressions;
  line "  pinned readers:        %d checks, %d torn reads" s.pinned_checks
    s.pinned_divergences;
  line "  corruptions:           %d injected" s.corruptions;
  line "  quarantine ladder:     %d failed audits, %d quarantines, %d stale \
        served, %d retries (%d recovered), %d hard fallbacks"
    s.store.Catalog.Store.audits_failed s.store.Catalog.Store.quarantines
    s.store.Catalog.Store.stale_served s.store.Catalog.Store.retries
    s.store.Catalog.Store.retry_successes
    s.store.Catalog.Store.hard_fallbacks;
  line "  staleness disclosure:  %d annotated cards, %d missing"
    s.annotated_cards s.missing_annotations;
  line "  drift:                 median q-error %.3f over %d checks \
        (tolerance %.1f)"
    s.median_q_error s.q_checks s.q_tolerance;
  line "  crashes:               %d%s" s.crashes
    (match s.first_failure with
    | Some msg -> Printf.sprintf "  (first failure: %s)" msg
    | None -> "");
  if not (Obs.Metrics.is_empty s.metrics) then begin
    line "  metrics:";
    List.iter
      (fun l -> if not (String.equal l "") then line "    %s" l)
      (String.split_on_char '\n'
         (Format.asprintf "%a" Obs.Metrics.pp s.metrics))
  end;
  line "churn: %s" (if pass s then "PASS" else "FAIL");
  Buffer.contents b
