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
    Alcotest.test_case "local sweep shape" `Quick test_local_sweep_shape;
    Alcotest.test_case "panels: F10/F14/F16" `Quick test_panels;
  ]
