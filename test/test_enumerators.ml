(* Unit tests for the greedy and randomized join enumerators. *)

let chain seed n =
  let spec =
    Datagen.Workload.chain ~rows_range:(50, 200) ~distinct_range:(10, 60)
      ~seed ~n_tables:n ()
  in
  (spec.Datagen.Workload.db, spec.Datagen.Workload.query)

let methods = [ Exec.Plan.Nested_loop; Exec.Plan.Sort_merge; Exec.Plan.Hash ]

let test_greedy_full_plan () =
  let db, q = chain 3 5 in
  let profile = Els.prepare Els.Config.els db q in
  let node = Optimizer.Greedy.optimize ~methods profile q in
  Alcotest.(check (list string))
    "covers all tables"
    (List.sort compare q.Query.tables)
    (List.sort compare (Exec.Plan.join_order node.Optimizer.Dp.plan));
  Alcotest.(check bool) "cost positive" true (node.Optimizer.Dp.cost > 0.)

let test_greedy_never_beats_dp () =
  (* DP is exhaustive over left-deep plans, so greedy's estimated cost can
     never be lower. *)
  List.iter
    (fun seed ->
      let db, q = chain seed 5 in
      let profile = Els.prepare Els.Config.els db q in
      let dp = Optimizer.Dp.optimize ~methods profile q in
      let greedy = Optimizer.Greedy.optimize ~methods profile q in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: dp <= greedy" seed)
        true
        (dp.Optimizer.Dp.cost <= greedy.Optimizer.Dp.cost +. 1e-6))
    [ 1; 2; 3; 4 ]

let test_random_walk_never_beats_dp () =
  List.iter
    (fun seed ->
      let db, q = chain seed 5 in
      let profile = Els.prepare Els.Config.els db q in
      let dp = Optimizer.Dp.optimize ~methods profile q in
      let rw = Optimizer.Random_walk.optimize ~methods ~seed:7 profile q in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: dp <= random" seed)
        true
        (dp.Optimizer.Dp.cost <= rw.Optimizer.Dp.cost +. 1e-6))
    [ 1; 2; 3 ]

let test_random_walk_deterministic () =
  let db, q = chain 2 5 in
  let profile = Els.prepare Els.Config.els db q in
  let a = Optimizer.Random_walk.optimize ~methods ~seed:5 profile q in
  let b = Optimizer.Random_walk.optimize ~methods ~seed:5 profile q in
  Alcotest.(check (list string))
    "same seed, same plan"
    (Exec.Plan.join_order a.Optimizer.Dp.plan)
    (Exec.Plan.join_order b.Optimizer.Dp.plan);
  Helpers.check_float "same cost" a.Optimizer.Dp.cost b.Optimizer.Dp.cost

let test_plan_of_order () =
  let db, q = chain 1 4 in
  let profile = Els.prepare Els.Config.els db q in
  let node =
    Optimizer.Dp.plan_order ~methods profile q.Query.tables
  in
  Alcotest.(check (list string))
    "order respected" q.Query.tables
    (Exec.Plan.join_order node.Optimizer.Dp.plan)

let test_enumerator_plans_execute () =
  let db, q = chain 4 5 in
  let expected = (Exec.Executor.run_query db q).Exec.Executor.row_count in
  List.iter
    (fun enumerator ->
      let choice = Optimizer.choose ~enumerator Els.Config.els db q in
      let rows, _, _ = Exec.Executor.count db choice.Optimizer.plan in
      Alcotest.(check int) "correct result" expected rows)
    [
      Optimizer.Exhaustive; Optimizer.Greedy_order; Optimizer.Randomized 3;
    ]

let test_single_and_two_tables () =
  let db = Datagen.Section8.build ~scale:100 ~seed:1 () in
  let one = Query.make ~tables:[ "s" ] [] in
  let two =
    Query.make ~tables:[ "s"; "m" ]
      [ Query.Predicate.col_eq (Query.Cref.v "s" "s") (Query.Cref.v "m" "m") ]
  in
  List.iter
    (fun q ->
      let profile = Els.prepare Els.Config.els db q in
      List.iter
        (fun node ->
          Alcotest.(check int) "tables covered"
            (List.length q.Query.tables)
            (List.length (Exec.Plan.join_order node.Optimizer.Dp.plan)))
        [
          Optimizer.Greedy.optimize ~methods profile q;
          Optimizer.Random_walk.optimize ~methods ~seed:1 profile q;
        ])
    [ one; two ]

(* Goldens for the greedy loop ([Dp.greedy_step]) that Greedy and DP's
   anytime ladder share: the chosen join order, the join methods
   innermost first, the cost as a hex float and the provenance (rung,
   budget trip, expansion count), under no budget and node budgets 3 and
   20. Budgeted DP is included because its ladder greedily completes its
   partial plans. *)
let golden_workloads =
  [
    ("chain6", Datagen.Workload.chain ~seed:5 ~n_tables:6 ());
    ( "zipf-star4",
      Datagen.Workload.star ~distribution:(Datagen.Distribution.Zipf 1.2)
        ~seed:5 ~n_dims:4 () );
    ("cmp-chain3", Datagen.Workload.comparison ~seed:5 ~n_tables:3 ());
  ]

let greedy_goldens =
  [
    ( "chain6", "greedy", None, "t5,t4,t6,t2,t3,t1", "HJ,HJ,HJ,HJ,HJ",
      "0x1.1a35a857f989cp+24", "greedy (completed, 45 expansions)" );
    ( "chain6", "greedy", Some 3, "t5,t1,t2,t3,t4,t6", "HJ,HJ,HJ,HJ,HJ",
      "0x1.6b691de28687bp+24", "left-deep-fallback (nodes budget exhausted after 4 expansions)" );
    ( "chain6", "greedy", Some 20, "t5,t4,t1,t2,t3,t6", "HJ,HJ,HJ,HJ,HJ",
      "0x1.651f263c246c6p+24", "left-deep-fallback (nodes budget exhausted after 21 expansions)" );
    ( "chain6", "dp", None, "t4,t5,t6,t2,t3,t1", "HJ,HJ,HJ,HJ,HJ",
      "0x1.1a35a857f989cp+24", "dp (completed, 564 expansions)" );
    ( "chain6", "dp", Some 3, "t1,t2,t3,t4,t5,t6", "HJ,HJ,HJ,HJ,HJ",
      "0x1.93a9397ba3a08p+24", "left-deep-fallback (nodes budget exhausted after 4 expansions)" );
    ( "chain6", "dp", Some 20, "t5,t4,t6,t2,t3,t1", "HJ,HJ,HJ,HJ,HJ",
      "0x1.1a35a857f989cp+24", "greedy (nodes budget exhausted after 21 expansions)" );
    ( "zipf-star4", "greedy", None, "d1,fact,d2,d4,d3", "HJ,HJ,HJ,HJ",
      "0x1.0cf3f16cddadbp+22", "greedy (completed, 24 expansions)" );
    ( "zipf-star4", "greedy", Some 3, "d1,fact,d2,d3,d4", "HJ,HJ,HJ,HJ",
      "0x1.2e76ec131ea38p+22", "left-deep-fallback (nodes budget exhausted after 4 expansions)" );
    ( "zipf-star4", "greedy", Some 20, "d1,fact,d2,d3,d4", "HJ,HJ,HJ,HJ",
      "0x1.2e76ec131ea38p+22", "left-deep-fallback (nodes budget exhausted after 21 expansions)" );
    ( "zipf-star4", "dp", None, "fact,d1,d2,d4,d3", "HJ,HJ,HJ,HJ",
      "0x1.0cf3f16cddadbp+22", "dp (completed, 113 expansions)" );
    ( "zipf-star4", "dp", Some 3, "fact,d1,d2,d3,d4", "HJ,HJ,HJ,HJ",
      "0x1.2e76ec131ea38p+22", "left-deep-fallback (nodes budget exhausted after 4 expansions)" );
    ( "zipf-star4", "dp", Some 20, "d1,fact,d2,d4,d3", "HJ,HJ,HJ,HJ",
      "0x1.0cf3f16cddadbp+22", "greedy (nodes budget exhausted after 21 expansions)" );
    ( "cmp-chain3", "greedy", None, "c2,c1,c3", "HJ,SM",
      "0x1.8c7477eb24c6bp+22", "greedy (completed, 7 expansions)" );
    ( "cmp-chain3", "greedy", Some 3, "c2,c1,c3", "HJ,SM",
      "0x1.8c7477eb24c6bp+22", "left-deep-fallback (nodes budget exhausted after 4 expansions)" );
    ( "cmp-chain3", "greedy", Some 20, "c2,c1,c3", "HJ,SM",
      "0x1.8c7477eb24c6bp+22", "greedy (completed, 7 expansions)" );
    ( "cmp-chain3", "dp", None, "c1,c2,c3", "HJ,SM",
      "0x1.8c7477eb24c6bp+22", "dp (completed, 18 expansions)" );
    ( "cmp-chain3", "dp", Some 3, "c2,c1,c3", "HJ,SM",
      "0x1.8c7477eb24c6bp+22", "greedy (nodes budget exhausted after 4 expansions)" );
    ( "cmp-chain3", "dp", Some 20, "c1,c2,c3", "HJ,SM",
      "0x1.8c7477eb24c6bp+22", "dp (completed, 18 expansions)" );
  ]

let rec plan_methods = function
  | Exec.Plan.Scan _ -> []
  | Exec.Plan.Join { method_; outer; _ } ->
    plan_methods outer @ [ Exec.Plan.method_name method_ ]

let test_greedy_goldens () =
  List.iter
    (fun (workload, enumerator, node_budget, order, methods, cost, prov) ->
      let spec = List.assoc workload golden_workloads in
      let q = spec.Datagen.Workload.query in
      let profile = Els.prepare Els.Config.els spec.Datagen.Workload.db q in
      let budget =
        Option.map (fun n -> Rel.Budget.create ~node_budget:n ()) node_budget
      in
      let node, provenance =
        match enumerator with
        | "greedy" -> Optimizer.Greedy.optimize_traced ?budget profile q
        | _ -> Optimizer.Dp.optimize_traced ?budget profile q
      in
      let label what =
        Printf.sprintf "%s/%s/%s: %s" workload enumerator
          (match node_budget with None -> "-" | Some n -> string_of_int n)
          what
      in
      let plan = node.Optimizer.Dp.plan in
      Alcotest.(check string) (label "order") order
        (String.concat "," (Exec.Plan.join_order plan));
      Alcotest.(check string) (label "methods") methods
        (String.concat "," (plan_methods plan));
      Alcotest.(check string) (label "cost") cost
        (Printf.sprintf "%h" node.Optimizer.Dp.cost);
      Alcotest.(check string) (label "provenance") prov
        (Optimizer.Provenance.to_string provenance))
    greedy_goldens

let suite =
  [
    Alcotest.test_case "greedy: full plan" `Quick test_greedy_full_plan;
    Alcotest.test_case "greedy: never beats DP" `Quick
      test_greedy_never_beats_dp;
    Alcotest.test_case "random walk: never beats DP" `Quick
      test_random_walk_never_beats_dp;
    Alcotest.test_case "random walk: deterministic" `Quick
      test_random_walk_deterministic;
    Alcotest.test_case "plan_of_order" `Quick test_plan_of_order;
    Alcotest.test_case "all enumerators execute correctly" `Quick
      test_enumerator_plans_execute;
    Alcotest.test_case "degenerate table counts" `Quick
      test_single_and_two_tables;
    Alcotest.test_case "greedy: plan goldens" `Quick test_greedy_goldens;
  ]
