(* Unit tests for the experiments harness: report rendering, the runner,
   the Section 8 experiment at reduced scale. *)

let test_report_table () =
  let s =
    Harness.Report.table ~header:[ "a"; "bb" ]
      [ [ "1"; "2" ]; [ "333" ] (* ragged row gets padded *) ]
  in
  Alcotest.(check bool) "contains header" true
    (String.length s > 0 && String.sub s 0 1 = "a");
  let lines = String.split_on_char '\n' (String.trim s) in
  Alcotest.(check int) "header + rule + 2 rows" 4 (List.length lines);
  (* Columns align: every '|' of the header appears at the same offset in
     the separator rule. *)
  match lines with
  | header_line :: rule :: _ ->
    String.iteri
      (fun i ch ->
        if ch = '|' then
          Alcotest.(check char) "separator aligned" '+' rule.[i])
      header_line
  | _ -> Alcotest.fail "missing rows"

let test_report_cells () =
  Alcotest.(check string) "float_cell" "4e-08" (Harness.Report.float_cell 4e-8);
  Alcotest.(check string) "size_list" "(100, 0.5)"
    (Harness.Report.size_list [ 100.; 0.5 ])

let test_runner_true_prefix_sizes () =
  let db = Datagen.Section8.build ~scale:20 ~seed:1 () in
  let q = Datagen.Section8.query_scaled ~scale:20 in
  let sizes =
    Harness.Runner.true_prefix_sizes db q [ "s"; "m"; "b"; "g" ]
  in
  (* With all implied predicates, every prefix of ≥2 tables has exactly
     cutoff-1 = 4 rows. *)
  Alcotest.(check (list (float 0.))) "all fours" [ 4.; 4.; 4. ] sizes

let test_runner_trial () =
  let db = Datagen.Section8.build ~scale:20 ~seed:1 () in
  let q = Datagen.Section8.query_scaled ~scale:20 in
  let trial = Harness.Runner.run Els.Config.els db q in
  Alcotest.(check string) "algorithm" "ELS" trial.Harness.Runner.algorithm;
  Alcotest.(check int) "result rows" 4 trial.Harness.Runner.result_rows;
  Alcotest.(check int) "three estimates" 3
    (List.length trial.Harness.Runner.estimates);
  Alcotest.(check bool) "work positive" true (trial.Harness.Runner.work > 0);
  (* ELS estimates equal the true sizes on this workload. *)
  List.iter2
    (fun est truth -> Helpers.check_float ~eps:1e-6 "estimate exact" truth est)
    trial.Harness.Runner.estimates trial.Harness.Runner.true_sizes

let test_section8_experiment_shape () =
  let rows = Harness.Section8_experiment.run ~scale:20 () in
  (* The paper's SM-without-PTC row plus one row per registered
     estimator. *)
  Alcotest.(check int) "row count"
    (1 + List.length (Els.Estimator.registry ()))
    (List.length rows);
  let algo i =
    (List.nth rows i).Harness.Section8_experiment.trial.Harness.Runner.algorithm
  in
  Alcotest.(check string) "row 1" "SM" (algo 0);
  Alcotest.(check string) "row 2" "SM+PTC" (algo 1);
  Alcotest.(check string) "row 3" "SSS" (algo 2);
  Alcotest.(check string) "row 4" "ELS" (algo 3);
  Alcotest.(check string) "row 5" "PESS" (algo 4);
  (* Every algorithm computes the same (correct) answer... *)
  List.iter
    (fun r ->
      Alcotest.(check int) "correct count" 4
        r.Harness.Section8_experiment.trial.Harness.Runner.result_rows)
    rows;
  (* ...but ELS finds a cheaper or equal plan than the misestimating
     algorithms (the paper's headline). *)
  let work i =
    (List.nth rows i).Harness.Section8_experiment.trial.Harness.Runner.work
  in
  Alcotest.(check bool) "ELS beats SM+PTC" true (work 3 <= work 1);
  Alcotest.(check bool) "ELS beats SSS" true (work 3 <= work 2);
  (* And the misestimation is visible: SM+PTC's final estimate is
     absurdly small while ELS's is exact. *)
  let final_est i =
    List.nth
      (List.nth rows i).Harness.Section8_experiment.trial.Harness.Runner.estimates
      2
  in
  Alcotest.(check bool) "SM+PTC underestimates" true (final_est 1 < 1e-6);
  Helpers.check_float ~eps:1e-6 "ELS exact" 4. (final_est 3)

let test_examples_tables_consistency () =
  (* The harness renderings must agree with the paper's numbers (already
     unit-tested against Els directly in test_els_paper). *)
  List.iter
    (fun (_, est, paper, _) ->
      Helpers.check_float ~eps:1e-9 "matches paper" paper est)
    (Harness.Examples_tables.rules_table ());
  let rows, card = Harness.Examples_tables.single_table_numbers () in
  Helpers.check_float "rows" 20. rows;
  Helpers.check_float "card" 9. card

let test_error_propagation_shape () =
  let points = Harness.Error_propagation.run ~seeds:[ 1; 2 ] ~max_tables:4 () in
  (* One point per registered estimator per size (2, 3 and 4 tables). *)
  Alcotest.(check int) "point count"
    (3 * List.length (Els.Estimator.registry ()))
    (List.length points);
  (* At 4 tables rule M must underestimate dramatically; LS must stay
     within a small constant factor. *)
  let find rule n =
    List.find
      (fun p ->
        p.Harness.Error_propagation.rule = rule
        && p.Harness.Error_propagation.n_tables = n)
      points
  in
  Alcotest.(check bool) "M collapses" true
    ((find "M" 4).Harness.Error_propagation.geo_mean_ratio < 1e-3);
  Alcotest.(check bool) "LS stays put" true
    ((find "LS" 4).Harness.Error_propagation.geo_mean_ratio > 0.2)

(* F1 and F6 pinned bit for bit: every geo-mean and worst ratio of a
   small F1 run and every field of a small F6 run, as hex floats (the
   printed 4-digit tables cannot show a last-bit change). F1's geo-mean
   sums its logs newest seed first, and these values pin that order too. *)
let f1_golden =
  [
    "2 M 0x1.d19a34c2c59eap-1 0x1.a59ee0398e16cp-1";
    "2 SS 0x1.d19a34c2c59eap-1 0x1.a59ee0398e16cp-1";
    "2 LS 0x1.d19a34c2c59eap-1 0x1.a59ee0398e16cp-1";
    "2 PESS 0x1.496bb71fe9e95p-1 0x1p-1";
    "2 LP2 0x1.496bb71fe9e95p-1 0x1p-1";
    "2 DEGSEQ 0x1.25d5f3979cd3p+0 0x1.448be405987b2p+0";
    "2 ENT 0x1.25d5f3979cd3p+0 0x1.448be405987b2p+0";
    "3 M 0x1.2363e4360ad62p-9 0x1.cd81cd7333fc3p-10";
    "3 SS 0x1.7d9b21c18299p-1 0x1.3a94fa8b06ef6p-1";
    "3 LS 0x1.98cd060a733aap-1 0x1.3a94fa8b06ef6p-1";
    "3 PESS 0x1.03660c66eaf66p-1 0x1.a9bfc546a6ff1p-2";
    "3 LP2 0x1.03660c66eaf66p-1 0x1.a9bfc546a6ff1p-2";
    "3 DEGSEQ 0x1.5d16bb443ebbfp-1 0x1p-1";
    "3 ENT 0x1.07097541c0718p+0 0x1.6c45bc19b116fp+0";
    "4 M 0x1.34701d50cb932p-26 0x1.7bfa99140c155p-27";
    "4 SS 0x1.976a393b3bd8fp-2 0x1.65f7807b376dcp-2";
    "4 LS 0x1.67c518b67974ep-1 0x1.cf7255acd112ep-2";
    "4 PESS 0x1.ed6e2d6090f8ep-3 0x1.a9bfc546a6ff1p-3";
    "4 LP2 0x1.ed6e2d6090f8ep-3 0x1.a9bfc546a6ff1p-3";
    "4 DEGSEQ 0x1.b5a583f45e7b1p-2 0x1.808b70344a13ap-2";
    "4 ENT 0x1.19b5424b423d8p-1 0x1.808b70344a13ap-2";
    "5 M 0x1.78c85e59953c7p-51 0x1.865524268b474p-52";
    "5 SS 0x1.23336cfb0a8c5p-3 0x1.e95d8a4d52938p-4";
    "5 LS 0x1.2120749eed24cp-1 0x1.74ae791bfd831p-2";
    "5 PESS 0x1.95e2579635912p-4 0x1.1348155ba961ap-4";
    "5 LP2 0x1.95e2579635912p-4 0x1.1348155ba961ap-4";
    "5 DEGSEQ 0x1.66bfe5ecb31d8p-3 0x1.2672672672672p-3";
    "5 ENT 0x1.66bfe5ecb31d8p-3 0x1.2672672672672p-3";
  ]

let f6_golden =
  [
    "SM+PTC 6 0x1.1315df89b3b98p+25 0x1.ad7f5946f9cfep+27 0x1.ad7f5946f9cfep+27 0x1p+0 0 0";
    "SSS 6 0x1.28454e38dc142p+6 0x1.13190a46ec4ep+10 0x1.13190a46ec4ep+10 0x1p+0 0 0";
    "ELS 6 0x1.172eb9b37eb2fp+0 0x1.d0789ef26586cp+0 0x1.d0789ef26586cp+0 0x1p+0 0 0";
    "PESS 6 0x1.3897b425ed098p+6 0x1.7f09249249249p+9 0x1.7f09249249249p+9 0x1p+0 0 0";
    "LP2 6 0x1.3897b425ed098p+6 0x1.7f09249249249p+9 0x1.7f09249249249p+9 0x1p+0 0 0";
    "DEGSEQ 6 0x1.1cd85689039b1p+2 0x1.da9b536a6d4dbp+3 0x1.da9b536a6d4dbp+3 0x1.aaaaaaaaaaaabp-1 0 0";
    "ENT 6 0x1.68e951033d91dp+3 0x1.f87566b9e2a65p+5 0x1.f87566b9e2a65p+5 0x1.aaaaaaaaaaaabp-1 0 0";
  ]

let test_f1_golden () =
  Alcotest.(check (list string)) "F1 at seeds 1-3, up to 5 tables" f1_golden
    (List.map
       (fun (p : Harness.Error_propagation.point) ->
         Printf.sprintf "%d %s %h %h" p.n_tables p.rule p.geo_mean_ratio
           p.worst_ratio)
       (Harness.Error_propagation.run ~seeds:[ 1; 2; 3 ] ~max_tables:5 ()))

let test_f6_golden () =
  Alcotest.(check (list string)) "F6 at seeds 1-3" f6_golden
    (List.map
       (fun (s : Harness.Accuracy.summary) ->
         Printf.sprintf "%s %d %h %h %h %h %d %d" s.algorithm s.queries
           s.median_q s.p90_q s.max_q s.underestimated s.infinite s.undefined)
       (Harness.Accuracy.run ~seeds:[ 1; 2; 3 ] ()))

let test_local_sweep_shape () =
  let points = Harness.Local_sweep.run ~cutoffs:[ 10; 100 ] () in
  List.iter
    (fun p ->
      (* ELS is exact on this workload; the standard estimate is not. *)
      Helpers.check_float ~eps:1e-6 "ELS exact"
        (float_of_int p.Harness.Local_sweep.true_size)
        p.Harness.Local_sweep.els_est;
      Alcotest.(check bool) "standard underestimates" true
        (p.Harness.Local_sweep.standard_est
        < float_of_int p.Harness.Local_sweep.true_size))
    points

(* The F10/F14/F16 panels at the scales `bench/main.exe --quick` runs
   them: every row finite, one row per (scenario, registry estimator) in
   scenario-major order, and each row's sizes exactly the one-shot
   estimator's along the FROM order. *)
let test_panels () =
  let estimators = List.map Els.Estimator.label (Els.Estimator.registry ()) in
  List.iter
    (fun (panel, scenarios) ->
      let rows = Harness.Panel.run scenarios in
      Alcotest.(check bool) (panel ^ ": pass") true (Harness.Panel.pass rows);
      Alcotest.(check (list (pair string string)))
        (panel ^ ": one row per scenario x estimator")
        (List.concat_map
           (fun (s : Harness.Panel.scenario) ->
             List.map (fun e -> (s.name, e)) estimators)
           scenarios)
        (List.map
           (fun (r : Harness.Panel.row) -> (r.scenario, r.estimator))
           rows);
      List.iter
        (fun (r : Harness.Panel.row) ->
          let s =
            List.find
              (fun (s : Harness.Panel.scenario) -> s.name = r.scenario)
              scenarios
          in
          let config =
            Els.Config.of_estimator (Els.Estimator.of_string_exn r.estimator)
          in
          let expected =
            Els.intermediate_sizes config s.db s.query s.query.Query.tables
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s/%s: sizes" panel r.scenario r.estimator)
            true
            (List.equal Float.equal expected r.sizes))
        rows)
    [
      ("f10", Harness.Panel.f10 ~scale:20 ~seed:42);
      ("f14", Harness.Panel.f14 ~seed:42);
      ("f16", Harness.Panel.f16 ~scale:50 ~seed:42);
    ]

let suite =
  [
    Alcotest.test_case "report: table" `Quick test_report_table;
    Alcotest.test_case "report: cells" `Quick test_report_cells;
    Alcotest.test_case "runner: true prefix sizes" `Quick
      test_runner_true_prefix_sizes;
    Alcotest.test_case "runner: trial" `Quick test_runner_trial;
    Alcotest.test_case "section 8 experiment shape" `Quick
      test_section8_experiment_shape;
    Alcotest.test_case "examples tables consistency" `Quick
      test_examples_tables_consistency;
    Alcotest.test_case "error propagation shape" `Quick
      test_error_propagation_shape;
    Alcotest.test_case "error propagation golden" `Quick test_f1_golden;
    Alcotest.test_case "q-error study golden" `Quick test_f6_golden;
    Alcotest.test_case "local sweep shape" `Quick test_local_sweep_shape;
    Alcotest.test_case "panels: F10/F14/F16" `Quick test_panels;
  ]

(* --- allocation audit --- *)

(* A truth is counted, never materialized: once warmed up (the executor's
   flat tables are reused per domain), a whole experiment allocates fewer
   words (minor + major - promoted) than the result rows its truths
   count. Materializing them costs several words per row: 26.2M words for
   F7's row and 426M for F14's panel. *)
let test_truth_allocation () =
  let words f =
    ignore (f ()) (* warmup *);
    let minor0, promoted0, major0 = Gc.counters () in
    let rows = f () in
    let minor1, promoted1, major1 = Gc.counters () in
    (rows, minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))
  in
  let skew () =
    List.fold_left
      (fun acc (p : Harness.Skew_join.point) -> acc + p.true_size)
      0
      (Harness.Skew_join.run ~rows:(4000, 2000) ~distinct:200 ~thetas:[ 1.5 ]
         ())
  in
  let f14 () =
    let scenarios = Harness.Panel.f14 ~seed:42 in
    let rows = Harness.Panel.run scenarios in
    List.fold_left
      (fun acc (s : Harness.Panel.scenario) ->
        let r =
          List.find (fun (r : Harness.Panel.row) -> r.scenario = s.name) rows
        in
        acc + int_of_float r.truth)
      0 scenarios
  in
  List.iter
    (fun (name, run, expected) ->
      let rows, allocated = words run in
      Alcotest.(check int) (name ^ ": rows counted") expected rows;
      match Sys.backend_type with
      | Sys.Native ->
        if not (allocated < float_of_int rows) then
          Alcotest.failf "%s: %.0f words allocated for %d rows counted" name
            allocated rows
      | Sys.Bytecode | Sys.Other _ -> ())
    [ ("F7 at theta 1.5", skew, 1_553_387); ("F14 panel", f14, 19_997_672) ]

let alloc_suite =
  [
    Alcotest.test_case "a truth never materializes its result" `Quick
      test_truth_allocation;
  ]
