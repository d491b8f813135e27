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

(* Goldens for the greedy loop ([Dp.greedy_complete]) that Greedy and DP's
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

(* Random-walk goldens on the same workloads, seed 1: orders, methods and
   costs captured before the walk moved onto DP's edge step. Only the
   completed runs' expansion counts moved since (4080, 2368 and 436
   before), because a restart no longer prices its final order twice. *)
let random_walk_goldens =
  [
    ( "chain6", None, "t5,t4,t6,t2,t3,t1", "HJ,HJ,HJ,HJ,HJ",
      "0x1.1a35a857f989cp+24", "random-walk (completed, 3960 expansions)" );
    ( "chain6", Some 3, "t1,t2,t3,t4,t5,t6", "HJ,HJ,HJ,HJ,HJ",
      "0x1.93a9397ba3a08p+24", "left-deep-fallback (nodes budget exhausted after 4 expansions)" );
    ( "chain6", Some 20, "t1,t2,t3,t4,t5,t6", "HJ,HJ,HJ,HJ,HJ",
      "0x1.93a9397ba3a08p+24", "left-deep-fallback (nodes budget exhausted after 21 expansions)" );
    ( "zipf-star4", None, "fact,d1,d2,d4,d3", "HJ,HJ,HJ,HJ",
      "0x1.0cf3f16cddadbp+22", "random-walk (completed, 2272 expansions)" );
    ( "zipf-star4", Some 3, "fact,d1,d2,d3,d4", "HJ,HJ,HJ,HJ",
      "0x1.2e76ec131ea38p+22", "left-deep-fallback (nodes budget exhausted after 4 expansions)" );
    ( "zipf-star4", Some 20, "fact,d1,d2,d3,d4", "HJ,HJ,HJ,HJ",
      "0x1.2e76ec131ea38p+22", "left-deep-fallback (nodes budget exhausted after 21 expansions)" );
    ( "cmp-chain3", None, "c1,c2,c3", "HJ,SM",
      "0x1.8c7477eb24c6bp+22", "random-walk (completed, 396 expansions)" );
    ( "cmp-chain3", Some 3, "c1,c2,c3", "HJ,SM",
      "0x1.8c7477eb24c6bp+22", "left-deep-fallback (nodes budget exhausted after 4 expansions)" );
    ( "cmp-chain3", Some 20, "c1,c2,c3", "HJ,SM",
      "0x1.8c7477eb24c6bp+22", "left-deep-fallback (nodes budget exhausted after 21 expansions)" );
  ]

let test_random_walk_goldens () =
  List.iter
    (fun (workload, node_budget, order, methods, cost, prov) ->
      let spec = List.assoc workload golden_workloads in
      let q = spec.Datagen.Workload.query in
      let profile = Els.prepare Els.Config.els spec.Datagen.Workload.db q in
      let budget =
        Option.map (fun n -> Rel.Budget.create ~node_budget:n ()) node_budget
      in
      let node, provenance =
        Optimizer.Random_walk.optimize_traced ?budget profile q
      in
      let label what =
        Printf.sprintf "%s/%s: %s" workload
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
    random_walk_goldens

(* Greedy and the random walk run one kernel step per (plan, table) edge,
   however many join methods they charge on it: on the chain6 golden
   workload, where every step has three applicable methods, a third of
   the expansions. *)
let test_one_kernel_step_per_edge () =
  let spec = List.assoc "chain6" golden_workloads in
  let q = spec.Datagen.Workload.query in
  List.iter
    (fun (name, optimize, steps, expansions) ->
      let profile = Els.prepare Els.Config.els spec.Datagen.Workload.db q in
      let before = Els.Profile.kernel_steps profile in
      let _, provenance = optimize profile q in
      Alcotest.(check int) (name ^ ": kernel steps") steps
        (Els.Profile.kernel_steps profile - before);
      Alcotest.(check int) (name ^ ": expansions") expansions
        provenance.Optimizer.Provenance.expansions)
    [
      ("greedy", (fun p q -> Optimizer.Greedy.optimize_traced p q), 15, 45);
      ( "random walk",
        (fun p q -> Optimizer.Random_walk.optimize_traced p q),
        1320, 3960 );
    ]

(* DP plan goldens, captured before the exhaustive enumerator moved from
   per-mask plan nodes to per-mask arrays. The greedy scenarios plus
   Section 8 at scale 20, under every built-in registry estimator, with
   the default method set, all four methods and the paper's [NL; SM],
   with no node budget and budgets 3, 20 and 200. A run renders as the
   join order, each join's method and predicates innermost first, the
   cost and the intermediate estimates as hex floats, and the provenance.
   Unbudgeted default-method runs are pinned literally; the other eleven
   runs of each (scenario, estimator) are pinned by one digest over their
   rendered rows. *)
let dp_scenarios =
  List.map
    (fun (name, spec) ->
      (name, spec.Datagen.Workload.db, spec.Datagen.Workload.query))
    golden_workloads
  @ [
      ( "section8-20",
        Datagen.Section8.build ~scale:20 ~seed:1 (),
        Datagen.Section8.query_scaled ~scale:20 );
    ]

let dp_estimators = Els.Estimator.[ m; ss; ls; pess; lp2; degseq; ent ]

let dp_method_sets =
  Exec.Plan.
    [
      ("default", None);
      ("all", Some [ Nested_loop; Sort_merge; Hash; Index_nested_loop ]);
      ("nl-sm", Some [ Nested_loop; Sort_merge ]);
    ]

let dp_node_budgets = [ None; Some 3; Some 20; Some 200 ]

let dp_run profile query ?methods node_budget =
  let budget =
    Option.map (fun n -> Rel.Budget.create ~node_budget:n ()) node_budget
  in
  let node, provenance =
    Optimizer.Dp.optimize_traced ?methods ?budget profile query
  in
  let rec joins = function
    | Exec.Plan.Scan _ -> []
    | Exec.Plan.Join { method_; outer; predicates; _ } ->
      joins outer
      @ [
          Printf.sprintf "%s[%s]"
            (Exec.Plan.method_name method_)
            (String.concat " AND "
               (List.map Query.Predicate.to_string predicates));
        ]
  in
  let plan = node.Optimizer.Dp.plan in
  ( String.concat "," (Exec.Plan.join_order plan),
    String.concat ";" (joins plan),
    Printf.sprintf "%h" node.Optimizer.Dp.cost,
    String.concat ","
      (List.map (Printf.sprintf "%h")
         (Els.Incremental.history node.Optimizer.Dp.state)),
    Optimizer.Provenance.to_string provenance )

let render_dp_run (order, joins, cost, estimates, provenance) =
  String.concat " | " [ order; joins; cost; estimates; provenance ]

let dp_digest profile query =
  let rows =
    List.concat_map
      (fun (set, methods) ->
        List.filter_map
          (fun node_budget ->
            match (methods, node_budget) with
            | None, None -> None
            | _ ->
              Some
                (Printf.sprintf "%s/%s: %s" set
                   (match node_budget with
                   | None -> "-"
                   | Some n -> string_of_int n)
                   (render_dp_run (dp_run profile query ?methods node_budget))))
          dp_node_budgets)
      dp_method_sets
  in
  Digest.to_hex (Digest.string (String.concat "\n" rows))

(* (scenario, estimator, order, joins, cost, estimates, provenance) *)
let dp_goldens =
  [
    ( "chain6", "m", "t4,t5,t6,t2,t1,t3",
      "HJ[t4.a = t5.a];HJ[t4.a = t6.a AND t5.a = t6.a];HJ[t2.a = t4.a AND t2.a = t5.a AND t2.a = t6.a];NL[t1.a = t2.a AND t1.a = t4.a AND t1.a = t5.a AND t1.a = t6.a];NL[t1.a = t3.a AND t2.a = t3.a AND t3.a = t4.a AND t3.a = t5.a AND t3.a = t6.a]",
      "0x1.5c593372c5216p+12", "0x1.4bbp+9,0x1.931033d91d2a2p+4,0x1.eb4180f51e6abp-8,0x1.2254acc2c6958p-23,0x1.ae31d38dd3d75p-47",
      "dp (completed, 564 expansions)" );
    ( "chain6", "ss", "t4,t5,t6,t2,t1,t3",
      "HJ[t4.a = t5.a];HJ[t4.a = t6.a AND t5.a = t6.a];HJ[t2.a = t4.a AND t2.a = t5.a AND t2.a = t6.a];HJ[t1.a = t2.a AND t1.a = t4.a AND t1.a = t5.a AND t1.a = t6.a];HJ[t1.a = t3.a AND t2.a = t3.a AND t3.a = t4.a AND t3.a = t5.a AND t3.a = t6.a]",
      "0x1.7121e5d147ae2p+20", "0x1.4bbp+9,0x1.f188p+10,0x1.7526p+13,0x1.95cc866666667p+16,0x1.34a10d047ae15p+20",
      "dp (completed, 564 expansions)" );
    ( "chain6", "ls", "t4,t5,t6,t2,t3,t1",
      "HJ[t4.a = t5.a];HJ[t4.a = t6.a AND t5.a = t6.a];HJ[t2.a = t4.a AND t2.a = t5.a AND t2.a = t6.a];HJ[t2.a = t3.a AND t3.a = t4.a AND t3.a = t5.a AND t3.a = t6.a];HJ[t1.a = t2.a AND t1.a = t3.a AND t1.a = t4.a AND t1.a = t5.a AND t1.a = t6.a]",
      "0x1.1a35a857f989cp+24", "0x1.4bbp+9,0x1.f7d440cf6474ap+11,0x1.a9c565a471bcbp+14,0x1.05abfbcd10915p+19,0x1.08b6e9e449518p+24",
      "dp (completed, 564 expansions)" );
    ( "chain6", "pess", "t1,t5,t2,t3,t4,t6",
      "HJ[t1.a = t5.a];HJ[t1.a = t2.a AND t2.a = t5.a];HJ[t1.a = t3.a AND t2.a = t3.a AND t3.a = t5.a];HJ[t1.a = t4.a AND t2.a = t4.a AND t3.a = t4.a AND t4.a = t5.a];HJ[t1.a = t6.a AND t2.a = t6.a AND t3.a = t6.a AND t4.a = t6.a AND t5.a = t6.a]",
      "0x1.a948p+13", "0x1.31p+8,0x1.31p+8,0x1.31p+8,0x1.31p+8,0x1.31p+8",
      "dp (completed, 564 expansions)" );
    ( "chain6", "lp2", "t1,t5,t2,t3,t4,t6",
      "HJ[t1.a = t5.a];HJ[t1.a = t2.a AND t2.a = t5.a];HJ[t1.a = t3.a AND t2.a = t3.a AND t3.a = t5.a];HJ[t1.a = t4.a AND t2.a = t4.a AND t3.a = t4.a AND t4.a = t5.a];HJ[t1.a = t6.a AND t2.a = t6.a AND t3.a = t6.a AND t4.a = t6.a AND t5.a = t6.a]",
      "0x1.a948p+13", "0x1.31p+8,0x1.31p+8,0x1.31p+8,0x1.31p+8,0x1.31p+8",
      "dp (completed, 564 expansions)" );
    ( "chain6", "degseq", "t4,t5,t6,t2,t1,t3",
      "HJ[t4.a = t5.a];HJ[t4.a = t6.a AND t5.a = t6.a];HJ[t2.a = t4.a AND t2.a = t5.a AND t2.a = t6.a];HJ[t1.a = t2.a AND t1.a = t4.a AND t1.a = t5.a AND t1.a = t6.a];HJ[t1.a = t3.a AND t2.a = t3.a AND t3.a = t4.a AND t3.a = t5.a AND t3.a = t6.a]",
      "0x1.ad58p+14", "0x1.5cp+9,0x1.ep+9,0x1.ep+10,0x1.5cp+11,0x1.e6cp+11",
      "dp (completed, 564 expansions)" );
    ( "chain6", "ent", "t4,t5,t6,t2,t1,t3",
      "HJ[t4.a = t5.a];HJ[t4.a = t6.a AND t5.a = t6.a];HJ[t2.a = t4.a AND t2.a = t5.a AND t2.a = t6.a];HJ[t1.a = t2.a AND t1.a = t4.a AND t1.a = t5.a AND t1.a = t6.a];HJ[t1.a = t3.a AND t2.a = t3.a AND t3.a = t4.a AND t3.a = t5.a AND t3.a = t6.a]",
      "0x1.ad58p+14", "0x1.5cp+9,0x1.ep+9,0x1.ep+10,0x1.5cp+11,0x1.e6cp+11",
      "dp (completed, 564 expansions)" );
    ( "zipf-star4", "m", "fact,d1,d2,d4,d3",
      "HJ[d1.k = fact.k1];HJ[d2.k = fact.k2];HJ[d4.k = fact.k4];HJ[d3.k = fact.k3]",
      "0x1.0cf3f16cddadbp+22", "0x1.45bdd49c34116p+13,0x1.fdffd5eccda45p+14,0x1.d838bc98e455cp+17,0x1.d2db0045b331fp+21",
      "dp (completed, 113 expansions)" );
    ( "zipf-star4", "ss", "fact,d1,d2,d4,d3",
      "HJ[d1.k = fact.k1];HJ[d2.k = fact.k2];HJ[d4.k = fact.k4];HJ[d3.k = fact.k3]",
      "0x1.0cf3f16cddadbp+22", "0x1.45bdd49c34116p+13,0x1.fdffd5eccda45p+14,0x1.d838bc98e455cp+17,0x1.d2db0045b331fp+21",
      "dp (completed, 113 expansions)" );
    ( "zipf-star4", "ls", "fact,d1,d2,d4,d3",
      "HJ[d1.k = fact.k1];HJ[d2.k = fact.k2];HJ[d4.k = fact.k4];HJ[d3.k = fact.k3]",
      "0x1.0cf3f16cddadbp+22", "0x1.45bdd49c34116p+13,0x1.fdffd5eccda45p+14,0x1.d838bc98e455cp+17,0x1.d2db0045b331fp+21",
      "dp (completed, 113 expansions)" );
    ( "zipf-star4", "pess", "fact,d1,d2,d3,d4",
      "HJ[d1.k = fact.k1];HJ[d2.k = fact.k2];HJ[d3.k = fact.k3];HJ[d4.k = fact.k4]",
      "0x1.9d38p+13", "0x1.ecp+6,0x1.ecp+6,0x1.ecp+6,0x1.ecp+6",
      "dp (completed, 113 expansions)" );
    ( "zipf-star4", "lp2", "fact,d1,d2,d3,d4",
      "HJ[d1.k = fact.k1];HJ[d2.k = fact.k2];HJ[d3.k = fact.k3];HJ[d4.k = fact.k4]",
      "0x1.9d38p+13", "0x1.ecp+6,0x1.ecp+6,0x1.ecp+6,0x1.ecp+6",
      "dp (completed, 113 expansions)" );
    ( "zipf-star4", "degseq", "fact,d1,d2,d4,d3",
      "HJ[d1.k = fact.k1];HJ[d2.k = fact.k2];HJ[d4.k = fact.k4];HJ[d3.k = fact.k3]",
      "0x1.c93e8p+17", "0x1.96ap+13,0x1.22bcp+14,0x1.336p+15,0x1.37cdp+16",
      "dp (completed, 113 expansions)" );
    ( "zipf-star4", "ent", "fact,d2,d4,d1,d3",
      "HJ[d2.k = fact.k2];HJ[d4.k = fact.k4];HJ[d1.k = fact.k1];HJ[d3.k = fact.k3]",
      "0x1.44f32p+20", "0x1.388p+14,0x1.388p+17,0x1.587fp+17,0x1.27d58p+19",
      "dp (completed, 113 expansions)" );
    ( "cmp-chain3", "m", "c1,c2,c3",
      "HJ[c1.a = c2.a];SM[c2.a < c3.a]",
      "0x1.8c7477eb24c6bp+22", "0x1.2615a240e6c2bp+13,0x1.81e6a60ff22fcp+22",
      "dp (completed, 18 expansions)" );
    ( "cmp-chain3", "ss", "c1,c2,c3",
      "HJ[c1.a = c2.a];SM[c2.a < c3.a]",
      "0x1.8c7477eb24c6bp+22", "0x1.2615a240e6c2bp+13,0x1.81e6a60ff22fcp+22",
      "dp (completed, 18 expansions)" );
    ( "cmp-chain3", "ls", "c1,c2,c3",
      "HJ[c1.a = c2.a];SM[c2.a < c3.a]",
      "0x1.8c7477eb24c6bp+22", "0x1.2615a240e6c2bp+13,0x1.81e6a60ff22fcp+22",
      "dp (completed, 18 expansions)" );
    ( "cmp-chain3", "pess", "c1,c2,c3",
      "HJ[c1.a = c2.a];SM[c2.a < c3.a]",
      "0x1.4a2f1cd880a07p+15", "0x1.ep+9,0x1.ep+9",
      "dp (completed, 18 expansions)" );
    ( "cmp-chain3", "lp2", "c1,c2,c3",
      "HJ[c1.a = c2.a];SM[c2.a < c3.a]",
      "0x1.4a2f1cd880a07p+15", "0x1.ep+9,0x1.ep+9",
      "dp (completed, 18 expansions)" );
    ( "cmp-chain3", "degseq", "c2,c3,c1",
      "SM[c2.a < c3.a];HJ[c1.a = c2.a]",
      "0x1.8ecf1cd880a07p+15", "0x1.ep+9,0x1.308p+13",
      "dp (completed, 18 expansions)" );
    ( "cmp-chain3", "ent", "c2,c3,c1",
      "SM[c2.a < c3.a];HJ[c1.a = c2.a]",
      "0x1.8ecf1cd880a07p+15", "0x1.ep+9,0x1.308p+13",
      "dp (completed, 18 expansions)" );
    ( "section8-20", "m", "s,m,b,g",
      "HJ[m.m = s.s];NL[b.b = m.m AND b.b = s.s];NL[b.b = g.g AND g.g = m.m AND g.g = s.s]",
      "0x1.3f041bee9f0abp+9", "0x1.0624dd2f1a9fcp-5,0x1.5fd7fe1796496p-26,0x1.82db34012b252p-61",
      "dp (completed, 88 expansions)" );
    ( "section8-20", "ss", "s,m,b,g",
      "HJ[m.m = s.s];NL[b.b = m.m AND b.b = s.s];NL[b.b = g.g AND g.g = m.m AND g.g = s.s]",
      "0x1.3f24dedcf1bf6p+9", "0x1.0624dd2f1a9fcp-5,0x1.ad7f29abcaf49p-15,0x1.5fd7fe1796496p-25",
      "dp (completed, 88 expansions)" );
    ( "section8-20", "ls", "s,m,b,g",
      "HJ[m.m = s.s];HJ[b.b = m.m AND b.b = s.s];HJ[b.b = g.g AND g.g = m.m AND g.g = s.s]",
      "0x1.f96p+12", "0x1p+2,0x1p+2,0x1p+2",
      "dp (completed, 88 expansions)" );
    ( "section8-20", "pess", "s,m,b,g",
      "HJ[m.m = s.s];HJ[b.b = m.m AND b.b = s.s];HJ[b.b = g.g AND g.g = m.m AND g.g = s.s]",
      "0x1.f96p+12", "0x1p+2,0x1p+2,0x1p+2",
      "dp (completed, 88 expansions)" );
    ( "section8-20", "lp2", "s,m,b,g",
      "HJ[m.m = s.s];HJ[b.b = m.m AND b.b = s.s];HJ[b.b = g.g AND g.g = m.m AND g.g = s.s]",
      "0x1.f96p+12", "0x1p+2,0x1p+2,0x1p+2",
      "dp (completed, 88 expansions)" );
    ( "section8-20", "degseq", "s,m,b,g",
      "HJ[m.m = s.s];HJ[b.b = m.m AND b.b = s.s];HJ[b.b = g.g AND g.g = m.m AND g.g = s.s]",
      "0x1.01cp+13", "0x1p+4,0x1.9p+5,0x1.9p+5",
      "dp (completed, 88 expansions)" );
    ( "section8-20", "ent", "s,m,b,g",
      "HJ[m.m = s.s];HJ[b.b = m.m AND b.b = s.s];HJ[b.b = g.g AND g.g = m.m AND g.g = s.s]",
      "0x1.f96p+12", "0x1p+2,0x1p+2,0x1p+2",
      "dp (completed, 88 expansions)" );
  ]

(* (scenario, estimator, digest of the eleven other runs) *)
let dp_digests =
  [
    ("chain6", "m", "f7189dc3f0043bb82b9473cf000c680f");
    ("chain6", "ss", "76dc7dac0ade1b8a08f6889d001cd722");
    ("chain6", "ls", "a819baf6f4e4bb0a19905e7e2df4270c");
    ("chain6", "pess", "8692b5e588e31f60dfce3640e63cc8b8");
    ("chain6", "lp2", "8692b5e588e31f60dfce3640e63cc8b8");
    ("chain6", "degseq", "ac7ddf9116589a6f8c8910245ab6bc04");
    ("chain6", "ent", "982ede76741142e126f567c5b5c739f5");
    ("zipf-star4", "m", "3c02038ccb7194215a20125dd6480354");
    ("zipf-star4", "ss", "3c02038ccb7194215a20125dd6480354");
    ("zipf-star4", "ls", "3c02038ccb7194215a20125dd6480354");
    ("zipf-star4", "pess", "fa22c227f152be542df23ac6a60113df");
    ("zipf-star4", "lp2", "fa22c227f152be542df23ac6a60113df");
    ("zipf-star4", "degseq", "51d4545a6d3f66c640d2f228ebc766bd");
    ("zipf-star4", "ent", "167050021e02b9a095e919df899ab09e");
    ("cmp-chain3", "m", "6d34884f40b2196a3fab433f57e13f72");
    ("cmp-chain3", "ss", "6d34884f40b2196a3fab433f57e13f72");
    ("cmp-chain3", "ls", "6d34884f40b2196a3fab433f57e13f72");
    ("cmp-chain3", "pess", "3d2f0bfda6b37603f46790c096e72125");
    ("cmp-chain3", "lp2", "3d2f0bfda6b37603f46790c096e72125");
    ("cmp-chain3", "degseq", "4c865140fe35036a6ab3bf9634d590fc");
    ("cmp-chain3", "ent", "4c865140fe35036a6ab3bf9634d590fc");
    ("section8-20", "m", "882114f71fc965e15c0a3e34be283c8a");
    ("section8-20", "ss", "bbe8154d96d9ad8a7660f449de65de44");
    ("section8-20", "ls", "b25cb2a2b9f8eab830431e026e1874fb");
    ("section8-20", "pess", "b25cb2a2b9f8eab830431e026e1874fb");
    ("section8-20", "lp2", "b25cb2a2b9f8eab830431e026e1874fb");
    ("section8-20", "degseq", "5028fd2e20b7786a1568b3444c986a21");
    ("section8-20", "ent", "b25cb2a2b9f8eab830431e026e1874fb");
  ]

let test_dp_goldens () =
  List.iter
    (fun (name, db, query) ->
      List.iter
        (fun est ->
          let id = Els.Estimator.id est in
          let label what = Printf.sprintf "%s/%s: %s" name id what in
          let profile = Els.prepare (Els.Config.of_estimator est) db query in
          let order, joins, cost, estimates, provenance =
            dp_run profile query None
          in
          List.iter
            (fun (s, e, order', joins', cost', estimates', provenance') ->
              if String.equal s name && String.equal e id then begin
                Alcotest.(check string) (label "order") order' order;
                Alcotest.(check string) (label "joins") joins' joins;
                Alcotest.(check string) (label "cost") cost' cost;
                Alcotest.(check string) (label "estimates") estimates'
                  estimates;
                Alcotest.(check string) (label "provenance") provenance'
                  provenance
              end)
            dp_goldens;
          let profile = Els.prepare (Els.Config.of_estimator est) db query in
          List.iter
            (fun (s, e, digest) ->
              if String.equal s name && String.equal e id then
                Alcotest.(check string) (label "budgeted and method-set runs")
                  digest (dp_digest profile query))
            dp_digests)
        dp_estimators)
    dp_scenarios;
  Alcotest.(check int) "one literal row per (scenario, estimator)"
    (List.length dp_scenarios * List.length dp_estimators)
    (List.length dp_goldens);
  Alcotest.(check int) "one digest per (scenario, estimator)"
    (List.length dp_scenarios * List.length dp_estimators)
    (List.length dp_digests)

(* Cost ties keep the first candidate, both when DP stores a subset's
   plan and when its anytime ladder picks the cheapest subset of a size:
   on a self-join of four copies of one table every subset of a size
   costs the same, so only the tie-breaks decide the order. The goldens
   above have no such ties. *)
let test_dp_ties_keep_first () =
  let db = Datagen.Section8.build ~scale:100 ~seed:1 () in
  let query =
    Sqlfront.Binder.compile_exn db
      "SELECT COUNT(*) FROM s a1, s a2, s a3, s a4 WHERE a1.s = a2.s AND \
       a2.s = a3.s AND a3.s = a4.s"
  in
  let profile =
    Els.prepare (Els.Config.of_estimator Els.Estimator.m) db query
  in
  List.iter
    (fun (node_budget, provenance) ->
      let budget =
        Option.map (fun n -> Rel.Budget.create ~node_budget:n ()) node_budget
      in
      let node, provenance' =
        Optimizer.Dp.optimize_traced ?budget profile query
      in
      let label =
        match node_budget with None -> "-" | Some n -> string_of_int n
      in
      Alcotest.(check string) (label ^ ": order") "a1,a2,a3,a4"
        (String.concat "," (Exec.Plan.join_order node.Optimizer.Dp.plan));
      Alcotest.(check string) (label ^ ": provenance") provenance
        (Optimizer.Provenance.to_string provenance'))
    [
      (None, "dp (completed, 88 expansions)");
      (Some 6, "greedy (nodes budget exhausted after 7 expansions)");
      (Some 40, "greedy (nodes budget exhausted after 41 expansions)");
    ]

(* DP keeps its per-mask arrays per domain between calls, and refills
   only the back-pointers. The reuse must be invisible:
   - in one process, a 12-table chain, a 4-table chain, the 12-table chain
     again and a node-budget trip through the anytime ladder (whose
     completions read the arrays) each render as their first run did,
     on every repeat;
   - a call after a Strict guard trip escaped mid-enumeration renders as
     a clean call;
   - two domains optimizing different queries at once each render as the
     sequential run. *)
let test_dp_arrays_invisible () =
  let big_db, big = chain 7 12 and small_db, small = chain 8 4 in
  let run db query node_budget =
    let profile = Els.prepare Els.Config.els db query in
    render_dp_run (dp_run profile query node_budget)
  in
  let runs =
    [
      ("12-table chain", fun () -> run big_db big None);
      ("4-table chain", fun () -> run small_db small None);
      ( "12-table chain, node budget 2000",
        fun () -> run big_db big (Some 2000) );
    ]
  in
  let first = List.map (fun (name, f) -> (name, f ())) runs in
  let repeat name =
    Alcotest.(check string) (name ^ ": repeat") (List.assoc name first)
      ((List.assoc name runs) ())
  in
  List.iter repeat
    [
      "12-table chain";
      "4-table chain";
      "12-table chain";
      "12-table chain, node budget 2000";
      "4-table chain";
      "12-table chain, node budget 2000";
      "12-table chain";
    ];
  Alcotest.(check bool) "the budget trips into the anytime ladder" true
    (let r = List.assoc "12-table chain, node budget 2000" first in
     Helpers.contains r "exhausted");
  (* A NaN class selectivity breaches the guard in the first connected
     step; under Strict the breach raises out of [optimize_traced]. *)
  let nan_rule =
    { Els.Estimator.m with id = "test-nan"; label = "NAN";
      combine = (fun _ -> Float.nan) }
  in
  let strict =
    Els.prepare
      (Els.Config.of_estimator ~strictness:Els.Config.Strict nan_rule)
      big_db big
  in
  (match Optimizer.Dp.optimize_traced strict big with
  | _ -> Alcotest.fail "a NaN selectivity under Strict must raise"
  | exception Els.Els_error.Error _ -> ());
  repeat "12-table chain";
  repeat "4-table chain";
  (* Two domains, each with its own catalog and profile, on queries
     large enough that their runs overlap. *)
  let worker (seed, n) =
    let db, query = chain seed n in
    let expected = run db query None in
    Domain.spawn (fun () ->
        let same = ref 0 in
        for _ = 1 to 50 do
          if String.equal (run db query None) expected then incr same
        done;
        !same)
  in
  let domains = List.map worker [ (7, 12); (9, 11) ] in
  List.iter
    (fun d ->
      Alcotest.(check int) "concurrent runs equal the sequential one" 50
        (Domain.join d))
    domains

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
    Alcotest.test_case "random walk: plan goldens" `Quick
      test_random_walk_goldens;
    Alcotest.test_case "greedy and random walk: one kernel step per edge"
      `Quick test_one_kernel_step_per_edge;
    Alcotest.test_case "dp: plan goldens" `Quick test_dp_goldens;
    Alcotest.test_case "dp: cost ties keep the first candidate" `Quick
      test_dp_ties_keep_first;
    Alcotest.test_case "dp: reused per-mask arrays are invisible" `Quick
      test_dp_arrays_invisible;
  ]
