(* Observability layer: trace spans, the metrics registry, JSON, and the
   estimate-derivation recorder. The properties at the bottom pin the
   layer's central contract — recording is observation-only (bit-identical
   estimates with obs on or off) and a recorded derivation replays to the
   exact step sizes the pipeline produced, on every workload shape the
   kernel differentials sweep. *)

(* --- trace spans --- *)

let test_trace_fake_clock () =
  let now = ref 0. in
  let tracer = Obs.Trace.create ~clock:(fun () -> !now) () in
  let t = Some tracer in
  Obs.Trace.with_span t "outer" (fun () ->
      now := !now +. 1.;
      Obs.Trace.with_span t "inner" (fun () ->
          now := !now +. 2.;
          Obs.Trace.attr_int t "k" 7);
      now := !now +. 0.5);
  match Obs.Trace.roots tracer with
  | [ outer ] ->
    Alcotest.(check string) "root name" "outer" outer.Obs.Trace.name;
    Helpers.check_float "root start" 0. outer.Obs.Trace.start_s;
    Helpers.check_float "root duration" 3.5 outer.Obs.Trace.duration_s;
    (match outer.Obs.Trace.children with
    | [ inner ] ->
      Alcotest.(check string) "child name" "inner" inner.Obs.Trace.name;
      Helpers.check_float "child start" 1. inner.Obs.Trace.start_s;
      Helpers.check_float "child duration" 2. inner.Obs.Trace.duration_s;
      Alcotest.(check bool) "child attr" true
        (inner.Obs.Trace.attrs = [ ("k", Obs.Json.Int 7) ])
    | children ->
      Alcotest.failf "expected 1 child, got %d" (List.length children))
  | roots -> Alcotest.failf "expected 1 root, got %d" (List.length roots)

let test_trace_exception_closes_span () =
  let tracer = Obs.Trace.create ~clock:(fun () -> 0.) () in
  let t = Some tracer in
  (try Obs.Trace.with_span t "boom" (fun () -> raise Exit) with Exit -> ());
  (match Obs.Trace.roots tracer with
  | [ s ] -> Alcotest.(check string) "span closed on raise" "boom" s.Obs.Trace.name
  | roots -> Alcotest.failf "expected 1 root, got %d" (List.length roots));
  (* without a tracer, with_span is the identity on the thunk *)
  Alcotest.(check int) "None tracer is transparent" 42
    (Obs.Trace.with_span None "x" (fun () -> 42))

(* --- json --- *)

let test_json_roundtrip () =
  let doc =
    Obs.Json.(
      Obj
        [
          ("name", String "els\"db\n");
          ("n", Int 42);
          ("pi", Float 3.5);
          ("ok", Bool true);
          ("none", Null);
          ("xs", List [ Int 1; Int 2; Obj [] ]);
        ])
  in
  (match Obs.Json.of_string (Obs.Json.to_string doc) with
  | Ok back -> Alcotest.(check bool) "roundtrip" true (back = doc)
  | Error e -> Alcotest.failf "parse error: %s" e);
  (match Obs.Json.of_string "{\"a\": [1, 2.5, null]}" with
  | Ok v ->
    Alcotest.(check bool) "int/float split" true
      (Obs.Json.member "a" v = Some (Obs.Json.List Obs.Json.[ Int 1; Float 2.5; Null ]))
  | Error e -> Alcotest.failf "parse error: %s" e);
  match Obs.Json.of_string "{broken" with
  | Ok _ -> Alcotest.fail "accepted malformed input"
  | Error _ -> ()

(* The parser is a boundary: adversarial input must come back as [Error],
   never as a stack overflow or an unbounded allocation. *)
let test_json_hardening () =
  (* pathological nesting is refused by the depth cap, not the stack *)
  (match Obs.Json.of_string (String.make 100_000 '[') with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted 100k-deep nesting");
  (match Obs.Json.of_string (String.make 100_000 '{') with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted 100k-deep object nesting");
  (* the cap is exact: depth max_depth parses, max_depth + 1 does not *)
  let nested depth = String.make depth '[' ^ "1" ^ String.make depth ']' in
  (match Obs.Json.of_string ~max_depth:8 (nested 8) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "refused depth 8 under max_depth 8: %s" e);
  (match Obs.Json.of_string ~max_depth:8 (nested 9) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted depth 9 under max_depth 8");
  (* oversized tokens are refused by the length cap *)
  (match
     Obs.Json.of_string ~max_token_bytes:16
       ("\"" ^ String.make 64 'a' ^ "\"")
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a 64-byte string under a 16-byte cap");
  match Obs.Json.of_string ~max_token_bytes:16 (String.make 64 '1') with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a 64-digit number under a 16-byte cap"

(* --- metrics registry --- *)

let test_metrics_instruments () =
  let m = Obs.Metrics.create () in
  Alcotest.(check bool) "fresh registry is empty" true
    (Obs.Metrics.is_empty (Obs.Metrics.snapshot m));
  let c = Obs.Metrics.counter m "a.hits" in
  Obs.Metrics.incr c;
  Obs.Metrics.incr ~by:4 c;
  let g = Obs.Metrics.gauge m "a.level" in
  Obs.Metrics.set g 1.5;
  Obs.Metrics.set g 2.5;
  let h = Obs.Metrics.histogram m "a.lat" in
  Obs.Metrics.observe h 1.;
  Obs.Metrics.observe h 3.;
  let snap = Obs.Metrics.snapshot m in
  Alcotest.(check bool) "counter" true
    (Obs.Metrics.find snap "a.hits" = Some (Obs.Metrics.Counter 5));
  Alcotest.(check bool) "gauge last-write-wins" true
    (Obs.Metrics.find snap "a.level" = Some (Obs.Metrics.Gauge 2.5));
  (match Obs.Metrics.find snap "a.lat" with
  | Some (Obs.Metrics.Histogram s) ->
    Alcotest.(check int) "hist count" 2 s.Obs.Metrics.count;
    Helpers.check_float "hist sum" 4. s.Obs.Metrics.sum;
    Helpers.check_float "hist min" 1. s.Obs.Metrics.min;
    Helpers.check_float "hist max" 3. s.Obs.Metrics.max
  | _ -> Alcotest.fail "histogram missing");
  Alcotest.(check (list string)) "sorted names"
    [ "a.hits"; "a.lat"; "a.level" ]
    (Obs.Metrics.names snap);
  (* kind clash *)
  Alcotest.(check bool) "kind clash rejected" true
    (try
       ignore (Obs.Metrics.gauge m "a.hits");
       false
     with Invalid_argument _ -> true)

let test_metrics_set_counter_monotone () =
  let m = Obs.Metrics.create () in
  let c = Obs.Metrics.counter m "total" in
  Obs.Metrics.set_counter c 10;
  Obs.Metrics.set_counter c 5;
  Alcotest.(check bool) "absorb never regresses" true
    (Obs.Metrics.find (Obs.Metrics.snapshot m) "total"
    = Some (Obs.Metrics.Counter 10));
  Obs.Metrics.set_counter c 12;
  Alcotest.(check bool) "absorb advances" true
    (Obs.Metrics.find (Obs.Metrics.snapshot m) "total"
    = Some (Obs.Metrics.Counter 12))

let test_metrics_quantile () =
  let q sorted p = Obs.Metrics.quantile (Array.of_list sorted) p in
  Helpers.check_float "p50 of 1..4" 2. (q [ 1.; 2.; 3.; 4. ] 0.5);
  let hundred = List.init 100 (fun i -> float_of_int (i + 1)) in
  Helpers.check_float "p99 of 1..100 is below the maximum" 99.
    (q hundred 0.99);
  Helpers.check_float "p50 of 1..100" 50. (q hundred 0.5);
  Helpers.check_float "p50 of one sample" 7. (q [ 7. ] 0.5);
  Helpers.check_float "p99 of one sample" 7. (q [ 7. ] 0.99);
  Alcotest.(check bool) "empty window is nan" true (Float.is_nan (q [] 0.5))

let test_metrics_diff () =
  let m = Obs.Metrics.create () in
  let c = Obs.Metrics.counter m "c" in
  let h = Obs.Metrics.histogram m "h" in
  Obs.Metrics.incr ~by:3 c;
  Obs.Metrics.observe h 10.;
  let before = Obs.Metrics.snapshot m in
  Obs.Metrics.incr ~by:2 c;
  Obs.Metrics.observe h 4.;
  ignore (Obs.Metrics.counter m "fresh");
  Obs.Metrics.incr (Obs.Metrics.counter m "fresh");
  let after = Obs.Metrics.snapshot m in
  let d = Obs.Metrics.diff ~before ~after in
  Alcotest.(check bool) "counter subtracts" true
    (Obs.Metrics.find d "c" = Some (Obs.Metrics.Counter 2));
  Alcotest.(check bool) "new instrument counts from zero" true
    (Obs.Metrics.find d "fresh" = Some (Obs.Metrics.Counter 1));
  match Obs.Metrics.find d "h" with
  | Some (Obs.Metrics.Histogram s) ->
    Alcotest.(check int) "hist count diff" 1 s.Obs.Metrics.count;
    Helpers.check_float "hist sum diff" 4. s.Obs.Metrics.sum
  | _ -> Alcotest.fail "histogram missing from diff"

let test_metrics_json_shape () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr (Obs.Metrics.counter m "c");
  Obs.Metrics.set (Obs.Metrics.gauge m "g") 1.5;
  Obs.Metrics.observe (Obs.Metrics.histogram m "h") 2.;
  let json = Obs.Metrics.to_json (Obs.Metrics.snapshot m) in
  let section name =
    match Obs.Json.member name json with
    | Some (Obs.Json.Obj fields) -> fields
    | _ -> Alcotest.failf "section %s missing" name
  in
  Alcotest.(check bool) "counters section" true
    (section "counters" = [ ("c", Obs.Json.Int 1) ]);
  Alcotest.(check bool) "gauges section" true
    (section "gauges" = [ ("g", Obs.Json.Float 1.5) ]);
  (match section "histograms" with
  | [ ("h", Obs.Json.Obj fields) ] ->
    Alcotest.(check bool) "histogram fields" true
      (List.mem_assoc "count" fields && List.mem_assoc "sum" fields)
  | _ -> Alcotest.fail "histogram entry malformed");
  (* empty registry still has all three sections *)
  let empty = Obs.Metrics.to_json (Obs.Metrics.snapshot (Obs.Metrics.create ())) in
  Alcotest.(check bool) "empty sections present" true
    (Obs.Json.member "counters" empty = Some (Obs.Json.Obj [])
    && Obs.Json.member "gauges" empty = Some (Obs.Json.Obj [])
    && Obs.Json.member "histograms" empty = Some (Obs.Json.Obj []))

(* --- derivation recorder --- *)

let estimator_combine ~rule ss =
  (Els.Estimator.of_string_exn rule).Els.Estimator.combine ss

let test_derivation_records_example1 () =
  let db = Helpers.example1_db () and query = Helpers.example1_query () in
  let profile = Els.prepare Els.Config.els db query in
  let deriv = Obs.Derivation.create () in
  let st = Els.Incremental.derive profile deriv [ "r1"; "r2"; "r3" ] in
  let history = Els.Incremental.history st in
  (match Obs.Derivation.base deriv with
  | [ (name, rows) ] ->
    Alcotest.(check string) "base table" "r1" name;
    Helpers.check_float "base rows" 100. rows
  | base -> Alcotest.failf "expected 1 base entry, got %d" (List.length base));
  let steps = Obs.Derivation.steps deriv in
  Alcotest.(check int) "one step per join" (List.length history)
    (List.length steps);
  List.iter2
    (fun step size ->
      Helpers.check_float "recorded output = history" size
        step.Obs.Derivation.output;
      Alcotest.(check bool) "classes recorded" true
        (step.Obs.Derivation.classes <> []);
      List.iter
        (fun cls ->
          Alcotest.(check bool) "inputs recorded" true
            (cls.Obs.Derivation.inputs <> []);
          Alcotest.(check bool) "d' provenance recorded" true
            (List.for_all
               (fun col -> col.Obs.Derivation.source <> "")
               cls.Obs.Derivation.columns))
        step.Obs.Derivation.classes)
    steps history;
  (* the card and the JSON render without blowing up and carry the rule *)
  let card = Format.asprintf "%a" Obs.Derivation.pp_card deriv in
  Alcotest.(check bool) "card mentions tables" true
    (Helpers.contains card "r2" && Helpers.contains card "r3");
  match Obs.Derivation.to_json deriv with
  | Obs.Json.Obj fields ->
    Alcotest.(check bool) "json has base and steps" true
      (List.mem_assoc "base" fields && List.mem_assoc "steps" fields)
  | _ -> Alcotest.fail "derivation json is not an object"

(* Recording is confined to [derive]: estimating on the same profile
   afterwards leaves the card untouched and never replays on the
   reference tier. *)
let test_derivation_detached_records_nothing () =
  let db = Helpers.example1_db () and query = Helpers.example1_query () in
  let profile = Els.prepare Els.Config.els db query in
  let order = [ "r1"; "r2"; "r3" ] in
  let deriv = Obs.Derivation.create () in
  ignore (Els.Incremental.derive profile deriv order);
  let recorded = List.length (Obs.Derivation.steps deriv) in
  let replayed = Els.Profile.kernel_fallback_steps profile in
  ignore (Els.Incremental.estimate_order profile order);
  Alcotest.(check int) "card untouched by later estimation" recorded
    (List.length (Obs.Derivation.steps deriv));
  Alcotest.(check int) "plain estimation never replays" replayed
    (Els.Profile.kernel_fallback_steps profile)

(* A guard trip mid-order under Strict raises out of [derive] and leaves
   the steps recorded before it on the card — what [elsdb explain] prints
   as a partial card. The cap trips on the second step only. *)
let test_derivation_partial_card () =
  let db = Helpers.example1_db () and query = Helpers.example1_query () in
  let tripwire =
    {
      Els.Estimator.ls with
      id = "tripwire";
      cap =
        Some
          (fun s ->
            ((if s.Els.Estimator.left_rows > 100. then -1. else infinity),
             "tripwire"));
    }
  in
  let config =
    Els.Config.with_strictness Els.Config.Strict
      (Els.Config.of_estimator tripwire)
  in
  let profile = Els.prepare config db query in
  let deriv = Obs.Derivation.create () in
  (match Els.Incremental.derive profile deriv [ "r1"; "r2"; "r3" ] with
  | _ -> Alcotest.fail "the second step's negative cap did not trip"
  | exception Els.Els_error.Error (Els.Els_error.Invariant_violation _) -> ());
  Alcotest.(check int) "base recorded" 1
    (List.length (Obs.Derivation.base deriv));
  Alcotest.(check int) "first step recorded" 1
    (List.length (Obs.Derivation.steps deriv))

(* --- d′ provenance from the value path ---

   Labels are decided where the numbers are computed: a column's d′ label
   by the match that computes d′, a comparison column's label by the CDF
   convolution that computed the step's selectivity. *)

let int_table name rows cols =
  let schema =
    Rel.Schema.make
      (List.map
         (fun (c, _) -> Rel.Schema.column ~table:name ~name:c Rel.Value.Ty_int)
         cols)
  in
  Catalog.Table.stats_only ~name ~schema ~row_count:rows ~column_stats:cols

let int_ i = Rel.Value.Int i
let key_stats =
  Stats.Col_stats.with_bounds ~distinct:100 ~lo:(int_ 1) ~hi:(int_ 100)

let ramp_stats =
  Stats.Col_stats.of_values ~histogram:Stats.Histogram.Equi_depth
    (Array.init 100 (fun i -> int_ (i + 1)))

let test_derivation_d_labels () =
  let skewed =
    Array.init 100 (fun i ->
        if i < 60 then int_ 1
        else if i < 90 then int_ 2
        else int_ (3 + (i mod 10)))
  in
  let db =
    Helpers.db_of_tables
      [
        int_table "r" 100
          [ ("k", key_stats); ("e", Stats.Col_stats.of_values ~mcv:2 skewed) ];
        int_table "s" 100 [ ("k", key_stats); ("h", ramp_stats) ];
        int_table "u" 100 [ ("k", key_stats); ("n", key_stats) ];
        int_table "v" 100 [ ("k", key_stats); ("c", key_stats) ];
        int_table "w" 100 [ ("k", key_stats) ];
        int_table "x" 100 [ ("p", key_stats); ("q", key_stats) ];
      ]
  in
  let c = Query.Cref.v in
  let query =
    Query.make ~tables:[ "r"; "s"; "u"; "v"; "w"; "x" ]
      Query.Predicate.
        [
          col_eq (c "r" "k") (c "s" "k");
          col_eq (c "s" "k") (c "u" "k");
          col_eq (c "u" "k") (c "v" "k");
          col_eq (c "v" "k") (c "w" "k");
          col_eq (c "w" "k") (c "x" "p");
          col_eq (c "w" "k") (c "x" "q");
          cmp (c "r" "e") Rel.Cmp.Eq (int_ 1);
          cmp (c "s" "h") Rel.Cmp.Le (int_ 25);
          cmp (c "u" "n") Rel.Cmp.Ne (int_ 3);
          cmp (c "v" "c") Rel.Cmp.Eq (int_ 1);
          cmp (c "v" "c") Rel.Cmp.Eq (int_ 2);
        ]
  in
  (* ELS: Section 6's single-table treatment applies to x.p = x.q. *)
  let profile = Els.prepare Els.Config.els db query in
  let label table column =
    (Query.Cref.Map.find (c table column)
       (Els.Profile.table profile table).Els.Profile.columns)
      .Els.Profile.d_source
  in
  List.iter
    (fun (table, column, expected) ->
      Alcotest.(check string) (table ^ "." ^ column) expected
        (label table column))
    [
      ("r", "e", "equality(mcv)");
      ("r", "k", "urn");
      ("s", "h", "range(histogram)");
      ("s", "k", "urn");
      ("u", "n", "ne");
      ("u", "k", "urn");
      ("v", "c", "contradiction");
      ("w", "k", "base");
      ("x", "p", "single-table(base)");
      ("x", "q", "single-table(base)");
    ];
  (* The card prints the same labels. *)
  let deriv = Obs.Derivation.create () in
  ignore (Els.Incremental.derive profile deriv [ "w"; "x"; "r" ]);
  let sources =
    List.concat_map
      (fun step ->
        List.concat_map
          (fun cls ->
            List.map
              (fun col ->
                (col.Obs.Derivation.column, col.Obs.Derivation.source))
              cls.Obs.Derivation.columns)
          step.Obs.Derivation.classes)
      (Obs.Derivation.steps deriv)
  in
  List.iter
    (fun (column, expected) ->
      Alcotest.(check (option string)) ("card: " ^ column) (Some expected)
        (List.assoc_opt column sources))
    [ ("w.k", "base"); ("x.p", "single-table(base)"); ("r.k", "urn") ]

(* The one comparison class of [l.x < r.y], derived under Trap so the
   statistics reach the estimator as given: its selectivity and its
   columns' labels. *)
let comparison_card left right =
  let db =
    Helpers.db_of_tables
      [ int_table "l" 100 [ ("x", left) ]; int_table "r" 100 [ ("y", right) ] ]
  in
  let query =
    Query.make ~tables:[ "l"; "r" ]
      [
        Query.Predicate.col_cmp (Query.Cref.v "l" "x") Query.Predicate.Lt
          (Query.Cref.v "r" "y");
      ]
  in
  let config = Els.Config.with_strictness Els.Config.Trap Els.Config.els in
  let deriv = Obs.Derivation.create () in
  ignore
    (Els.Incremental.derive (Els.prepare config db query) deriv [ "l"; "r" ]);
  match Obs.Derivation.steps deriv with
  | [ { Obs.Derivation.classes = [ cls ]; _ } ] ->
    ( List.map snd cls.Obs.Derivation.inputs,
      List.map
        (fun col -> (col.Obs.Derivation.column, col.Obs.Derivation.source))
        cls.Obs.Derivation.columns )
  | _ -> Alcotest.fail "expected one step with one comparison class"

let test_derivation_cdf_labels () =
  let labels = Alcotest.(list (pair string string)) in
  let none = Stats.Col_stats.trivial ~distinct:100 in
  let zero_mass =
    { none with
      Stats.Col_stats.histogram =
        Some
          (Stats.Histogram.of_buckets Stats.Histogram.Equi_width
             [
               { Stats.Histogram.lo = 1.; hi = 100.; count = 0.; distinct = 0. };
             ]) }
  in
  let inverted =
    Stats.Col_stats.with_bounds ~distinct:100 ~lo:(int_ 100) ~hi:(int_ 1)
  in
  Alcotest.check labels "histograms"
    [ ("l.x", "cdf(histogram)"); ("r.y", "cdf(histogram)") ]
    (snd (comparison_card ramp_stats ramp_stats));
  Alcotest.check labels "histogram over bounds"
    [ ("l.x", "cdf(histogram)"); ("r.y", "cdf(interpolation)") ]
    (snd (comparison_card ramp_stats key_stats));
  List.iter
    (fun (name, left, right) ->
      let sels, columns = comparison_card left right in
      Alcotest.(check (list (float 0.))) (name ^ ": the 1/3 default")
        [ Stats.Selectivity_est.default_range ] sels;
      Alcotest.check labels (name ^ ": both columns cdf(default)")
        [ ("l.x", "cdf(default)"); ("r.y", "cdf(default)") ]
        columns)
    [
      ("left without numeric statistics", none, ramp_stats);
      ("right without numeric statistics", ramp_stats, none);
      ("right histogram of zero mass", ramp_stats, zero_mass);
      ("right bounds inverted", ramp_stats, inverted);
    ]

let fault_query db =
  match Sqlfront.Binder.compile_result db Harness.Fault.inequality_sql with
  | Ok query -> query
  | Error e -> Alcotest.fail (Els.Els_error.to_string e)

(* End to end: t3.a lost its statistics, so the t2.a < t3.a step falls
   back to the 1/3 default, and the card says so for both columns
   rather than crediting t2.a's histogram. *)
let test_derivation_fault_cdf_default () =
  let db =
    Harness.Fault.corrupt_db ~tables:[ "t3" ] ~columns:[ "a" ]
      Harness.Fault.Drop_stats (Harness.Fault.base_db ())
  in
  let config = Els.Config.with_strictness Els.Config.Repair Els.Config.els in
  let profile = Els.prepare config db (fault_query db) in
  let deriv = Obs.Derivation.create () in
  ignore (Els.Incremental.derive profile deriv [ "t1"; "t2"; "t3" ]);
  let comparison =
    List.concat_map
      (fun step ->
        List.filter
          (fun cls -> String.equal cls.Obs.Derivation.kind "ineq")
          step.Obs.Derivation.classes)
      (Obs.Derivation.steps deriv)
  in
  match comparison with
  | [ cls ] ->
    Alcotest.(check (list (pair string (float 0.)))) "s = 1/3"
      [ ("t2.a < t3.a", Stats.Selectivity_est.default_range) ]
      cls.Obs.Derivation.inputs;
    Alcotest.(check (list (pair string string))) "both columns cdf(default)"
      [ ("t2.a", "cdf(default)"); ("t3.a", "cdf(default)") ]
      (List.map
         (fun col -> (col.Obs.Derivation.column, col.Obs.Derivation.source))
         cls.Obs.Derivation.columns)
  | classes ->
    Alcotest.failf "expected one comparison class, got %d" (List.length classes)

let test_choose_trace_transparent () =
  let db = Helpers.example1_db () and query = Helpers.example1_query () in
  let plain = Optimizer.choose Els.Config.els db query in
  let tracer = Obs.Trace.create ~clock:(fun () -> 0.) () in
  let traced = Optimizer.choose ~trace:tracer Els.Config.els db query in
  Alcotest.(check (list string)) "same join order"
    plain.Optimizer.join_order traced.Optimizer.join_order;
  Alcotest.(check bool) "same cost" true
    (Float.equal plain.Optimizer.estimated_cost traced.Optimizer.estimated_cost);
  let root_names =
    List.map (fun s -> s.Obs.Trace.name) (Obs.Trace.roots tracer)
  in
  Alcotest.(check bool) "profile and optimize spans recorded" true
    (List.mem "profile" root_names && List.mem "optimize" root_names)

(* --- properties --- *)

(* Observation transparency: a tracer and a recorded derivation change no
   estimated number, for any order and estimator — the traced profile
   estimates like the plain one, and the derivation replay returns the
   plain profile's history. *)
let prop_obs_bit_identity =
  QCheck2.Test.make ~count:60 ~name:"estimates bit-identical with obs on/off"
    ~print:Test_kernel.print_workload Test_kernel.gen_workload
    (fun workload ->
      let db, query, names = Test_kernel.build_workload workload in
      List.for_all
        (fun config ->
          let plain = Els.prepare config db query in
          let observed =
            Els.prepare ~trace:(Obs.Trace.create ~clock:(fun () -> 0.) ())
              config db query
          in
          List.for_all
            (fun order ->
              let a =
                Els.Incremental.history
                  (Els.Incremental.estimate_order plain order)
              in
              let b =
                Els.Incremental.history
                  (Els.Incremental.estimate_order observed order)
              in
              let c =
                Els.Incremental.history
                  (Els.Incremental.derive observed (Obs.Derivation.create ())
                     order)
              in
              List.for_all2 Float.equal a b && List.for_all2 Float.equal a c)
            (Test_kernel.permutations names))
        (Test_kernel.configs ()))

(* Replay: a recorded derivation recomputes to the exact step sizes the
   kernel produced. *)
let prop_derivation_replay =
  QCheck2.Test.make ~count:60 ~name:"derivation replays to recorded S_J"
    ~print:Test_kernel.print_workload Test_kernel.gen_workload
    (fun workload ->
      let db, query, names = Test_kernel.build_workload workload in
      List.for_all
        (fun config ->
          let profile = Els.prepare config db query in
          let history =
            Els.Incremental.history
              (Els.Incremental.estimate_order profile names)
          in
          let deriv = Obs.Derivation.create () in
          ignore (Els.Incremental.derive profile deriv names);
          let replayed =
            Obs.Derivation.replay ~combine:estimator_combine deriv
          in
          List.length replayed = List.length history
          && List.for_all2 Float.equal replayed history)
        (Test_kernel.configs ()))

(* Snapshot diffs of counter activity are non-negative and account for
   exactly the increments between the snapshots. *)
let gen_counter_ops =
  QCheck2.Gen.(
    list_size (int_range 0 30) (pair (int_range 0 4) (int_range 0 5)))

let prop_metric_diff_monotone =
  QCheck2.Test.make ~count:200 ~name:"metric snapshot diff is monotone"
    ~print:(fun (a, b) ->
      Printf.sprintf "before=%d ops, after=%d ops" (List.length a)
        (List.length b))
    QCheck2.Gen.(pair gen_counter_ops gen_counter_ops)
    (fun (ops1, ops2) ->
      let m = Obs.Metrics.create () in
      let apply =
        List.iter (fun (i, by) ->
            Obs.Metrics.incr ~by
              (Obs.Metrics.counter m (Printf.sprintf "c%d" i)))
      in
      apply ops1;
      let before = Obs.Metrics.snapshot m in
      apply ops2;
      let after = Obs.Metrics.snapshot m in
      let d = Obs.Metrics.diff ~before ~after in
      let counters =
        List.filter_map
          (function
            | _, Obs.Metrics.Counter n -> Some n
            | _, (Obs.Metrics.Gauge _ | Obs.Metrics.Histogram _) -> None)
          (Obs.Metrics.bindings d)
      in
      List.for_all (fun n -> n >= 0) counters
      && List.fold_left ( + ) 0 counters
         = List.fold_left (fun acc (_, by) -> acc + by) 0 ops2)

(* Totality fuzz: [of_string] on arbitrary bytes returns Ok or Error —
   it never raises and never fails to terminate. *)
let prop_json_parse_total =
  QCheck2.Test.make ~count:2_000 ~name:"json parse is total on random bytes"
    ~print:String.escaped
    QCheck2.Gen.(string_size ~gen:(char_range '\000' '\255') (int_range 0 200))
    (fun s ->
      match Obs.Json.of_string ~max_depth:32 ~max_token_bytes:4096 s with
      | Ok _ | Error _ -> true)

(* Totality fuzz on near-misses: take a valid document, damage one byte,
   and the parser must still return rather than raise. *)
let prop_json_parse_total_mutated =
  QCheck2.Test.make ~count:2_000 ~name:"json parse is total on mutated docs"
    ~print:(fun (pos, byte) -> Printf.sprintf "pos=%d byte=%d" pos byte)
    QCheck2.Gen.(pair (int_range 0 1000) (int_range 0 255))
    (fun (pos, byte) ->
      let doc =
        Obs.Json.to_string
          Obs.Json.(
            Obj
              [
                ("id", String "q-1");
                ("xs", List [ Int 1; Float 2.5; Null; Bool false ]);
                ("nested", Obj [ ("deep", List [ Obj [ ("k", Int 9) ] ]) ]);
              ])
      in
      let b = Bytes.of_string doc in
      Bytes.set b (pos mod Bytes.length b) (Char.chr byte);
      match Obs.Json.of_string (Bytes.to_string b) with
      | Ok _ | Error _ -> true)

let suite =
  [
    Alcotest.test_case "trace: fake clock nesting" `Quick test_trace_fake_clock;
    Alcotest.test_case "trace: exception closes span" `Quick
      test_trace_exception_closes_span;
    Alcotest.test_case "json: roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json: adversarial input refused" `Quick
      test_json_hardening;
    Alcotest.test_case "metrics: instruments" `Quick test_metrics_instruments;
    Alcotest.test_case "metrics: set_counter monotone" `Quick
      test_metrics_set_counter_monotone;
    Alcotest.test_case "metrics: nearest-rank quantile" `Quick
      test_metrics_quantile;
    Alcotest.test_case "metrics: diff" `Quick test_metrics_diff;
    Alcotest.test_case "metrics: json shape" `Quick test_metrics_json_shape;
    Alcotest.test_case "derivation: records example 1" `Quick
      test_derivation_records_example1;
    Alcotest.test_case "derivation: detached sink" `Quick
      test_derivation_detached_records_nothing;
    Alcotest.test_case "derivation: partial card on a guard trip" `Quick
      test_derivation_partial_card;
    Alcotest.test_case "optimizer: trace-transparent" `Quick
      test_choose_trace_transparent;
    Alcotest.test_case "derivation: d′ labels from the value path" `Quick
      test_derivation_d_labels;
    Alcotest.test_case "derivation: comparison columns name the CDF read"
      `Quick test_derivation_cdf_labels;
    Alcotest.test_case "derivation: cdf(default) after dropped statistics"
      `Quick test_derivation_fault_cdf_default;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_obs_bit_identity;
        prop_derivation_replay;
        prop_metric_diff_monotone;
        prop_json_parse_total;
        prop_json_parse_total_mutated;
      ]
