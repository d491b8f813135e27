(* Resource budgets: the Rel.Budget primitive, the optimizer's anytime
   degradation ladder, and cooperative executor cancellation.

   The three load-bearing contracts:
   - with [?budget:None] (or an unexhausted budget) everything is
     bit-identical to the unbudgeted code path;
   - with identical inputs, a larger budget never yields a costlier
     chosen plan (the candidate ladder is budget-nested);
   - however execution stops, the budget's row count equals
     [tuples_read + tuples_output] (spends mirror the counters). *)

let methods = [ Exec.Plan.Nested_loop; Exec.Plan.Sort_merge; Exec.Plan.Hash ]

let chain seed n =
  let spec =
    Datagen.Workload.chain ~rows_range:(50, 200) ~distinct_range:(10, 60)
      ~seed ~n_tables:n ()
  in
  (spec.Datagen.Workload.db, spec.Datagen.Workload.query)

(* A fake clock the tests advance by hand: deadlines become fully
   deterministic. *)
let fake_clock start =
  let t = ref start in
  ((fun () -> !t), fun dt -> t := !t +. dt)

(* --- Budget unit tests --- *)

let test_create_validates () =
  let bad f = Alcotest.check_raises "rejects" (Invalid_argument "") (fun () ->
    try ignore (f ()) with Invalid_argument _ -> raise (Invalid_argument ""))
  in
  bad (fun () -> Rel.Budget.create ~deadline_ms:0. ());
  bad (fun () -> Rel.Budget.create ~deadline_ms:(-5.) ());
  bad (fun () -> Rel.Budget.create ~node_budget:(-1) ());
  bad (fun () -> Rel.Budget.create ~row_budget:(-1) ())

let test_node_limit_sticky () =
  let b = Rel.Budget.create ~node_budget:3 () in
  Alcotest.(check bool) "under" true (Rel.Budget.spend_node b 3 = Ok ());
  Alcotest.(check bool)
    "over trips Nodes" true
    (Rel.Budget.spend_node b 1 = Error Rel.Budget.Nodes);
  (* Sticky: every later check reports the same resource, but usage keeps
     accumulating so cancellation sites can record actual work. *)
  Alcotest.(check bool)
    "check re-reports" true
    (Rel.Budget.check b = Error Rel.Budget.Nodes);
  ignore (Rel.Budget.spend_node b 5);
  Alcotest.(check int) "usage monotone" 9 (Rel.Budget.nodes_used b);
  Alcotest.(check bool)
    "exhausted accessor" true
    (Rel.Budget.exhausted b = Some Rel.Budget.Nodes)

let test_node_trip_spares_row_path () =
  (* A Nodes trip is absorbed by the optimizer's anytime ladder, so a
     budget shared across optimize + execute must still let the chosen
     plan run: the row path only fails on its own limits. *)
  let b = Rel.Budget.create ~node_budget:1 ~row_budget:5 () in
  ignore (Rel.Budget.spend_node b 2);
  Alcotest.(check bool)
    "node path tripped" true
    (Rel.Budget.exhausted b = Some Rel.Budget.Nodes);
  Alcotest.(check bool)
    "rows still spendable" true
    (Rel.Budget.spend_rows b 5 = Ok ());
  Alcotest.(check bool)
    "row limit still enforced" true
    (Rel.Budget.spend_rows b 1 = Error Rel.Budget.Rows);
  (* The globally-blocking trip supersedes the absorbed node trip. *)
  Alcotest.(check bool)
    "escalated to Rows" true
    (Rel.Budget.exhausted b = Some Rel.Budget.Rows);
  Alcotest.(check bool)
    "node path stays tripped" true
    (Rel.Budget.spend_node b 1 = Error Rel.Budget.Nodes)

let test_row_limit () =
  let b = Rel.Budget.create ~row_budget:10 () in
  Alcotest.(check bool) "under" true (Rel.Budget.spend_rows b 10 = Ok ());
  Alcotest.(check bool)
    "over trips Rows" true
    (Rel.Budget.spend_rows b 1 = Error Rel.Budget.Rows);
  Alcotest.(check int) "rows recorded" 11 (Rel.Budget.rows_used b)

let test_fake_clock_deadline () =
  let clock, advance = fake_clock 100. in
  let b = Rel.Budget.create ~clock ~deadline_ms:10. () in
  Alcotest.(check bool) "before deadline" true (Rel.Budget.check b = Ok ());
  advance 0.009;
  Alcotest.(check bool) "still before" true (Rel.Budget.check b = Ok ());
  advance 0.002;
  Alcotest.(check bool)
    "past deadline" true
    (Rel.Budget.check b = Error Rel.Budget.Deadline);
  match Rel.Budget.remaining_ms b with
  | Some ms -> Alcotest.(check bool) "remaining negative" true (ms < 0.)
  | None -> Alcotest.fail "deadline budget must report remaining time"

let test_row_deadline_stride () =
  (* The row path only probes the deadline every stride-th spend, so the
     trip lands on a spend whose ordinal is a multiple of the stride. *)
  let clock, advance = fake_clock 0. in
  let b = Rel.Budget.create ~clock ~deadline_ms:1. () in
  advance 0.01 (* already past the deadline *);
  let tripped_at = ref 0 in
  (try
     for i = 1 to 2 * Rel.Budget.row_deadline_stride do
       match Rel.Budget.spend_rows b 1 with
       | Ok () -> ()
       | Error _ ->
         tripped_at := i;
         raise Exit
     done
   with Exit -> ());
  Alcotest.(check int)
    "trips on the stride boundary" Rel.Budget.row_deadline_stride !tripped_at

(* --- Optimizer: bit-identity with no/huge budget --- *)

let test_unbudgeted_identity () =
  List.iter
    (fun seed ->
      let db, q = chain seed 6 in
      let profile = Els.prepare Els.Config.els db q in
      let plain = Optimizer.Dp.optimize ~methods profile q in
      let budget = Rel.Budget.create ~node_budget:10_000_000 () in
      let budgeted, prov =
        Optimizer.Dp.optimize_traced ~methods ~budget profile q
      in
      (* Bit-identical, not approximately equal: an unexhausted budget
         must not perturb a single float. *)
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: cost bit-identical" seed)
        true
        (Float.equal plain.Optimizer.Dp.cost budgeted.Optimizer.Dp.cost);
      Alcotest.(check (list string))
        (Printf.sprintf "seed %d: same join order" seed)
        (Exec.Plan.join_order plain.Optimizer.Dp.plan)
        (Exec.Plan.join_order budgeted.Optimizer.Dp.plan);
      List.iter2
        (fun a b ->
          Alcotest.(check bool) "estimate bit-identical" true (Float.equal a b))
        (Els.Incremental.history plain.Optimizer.Dp.state)
        (Els.Incremental.history budgeted.Optimizer.Dp.state);
      Alcotest.(check bool)
        "completed on the Dp rung" true
        (prov.Optimizer.Provenance.rung = Optimizer.Provenance.Dp
        && prov.Optimizer.Provenance.exhausted = None))
    [ 1; 2; 3; 4; 5 ]

let test_choose_provenance_plumbed () =
  let db, q = chain 2 5 in
  let choice = Optimizer.choose Els.Config.els db q in
  Alcotest.(check bool)
    "unbudgeted choose completes on Dp" true
    (choice.Optimizer.provenance.Optimizer.Provenance.rung
     = Optimizer.Provenance.Dp);
  let budget = Rel.Budget.create ~node_budget:4 () in
  let choice = Optimizer.choose ~budget Els.Config.els db q in
  Alcotest.(check bool)
    "tiny budget degrades but answers" true
    (choice.Optimizer.provenance.Optimizer.Provenance.exhausted
     = Some Rel.Budget.Nodes);
  Alcotest.(check (list string))
    "degraded plan still covers all tables"
    (List.sort compare q.Query.tables)
    (List.sort compare choice.Optimizer.join_order)

let test_deadline_degrades_deterministically () =
  (* A fake clock that advances on every probe: the deadline trips at a
     reproducible expansion, so two runs degrade identically. *)
  let run () =
    let db, q = chain 4 7 in
    let profile = Els.prepare Els.Config.els db q in
    let clock, advance = fake_clock 0. in
    let probing_clock () =
      advance 0.0001;
      clock ()
    in
    let budget = Rel.Budget.create ~clock:probing_clock ~deadline_ms:1. () in
    Optimizer.Dp.optimize_traced ~methods ~budget profile q
  in
  let node_a, prov_a = run () in
  let node_b, prov_b = run () in
  Alcotest.(check bool)
    "deadline tripped" true
    (prov_a.Optimizer.Provenance.exhausted = Some Rel.Budget.Deadline);
  Alcotest.(check (list string))
    "deterministic degradation"
    (Exec.Plan.join_order node_a.Optimizer.Dp.plan)
    (Exec.Plan.join_order node_b.Optimizer.Dp.plan);
  Alcotest.(check bool)
    "same rung" true
    (prov_a.Optimizer.Provenance.rung = prov_b.Optimizer.Provenance.rung)

(* --- Satellite regression: no applicable method is an error, not an
   assert false --- *)

let cartesian_db_query () =
  let rng = Datagen.Prng.create 11 in
  let db = Catalog.Db.create () in
  List.iter
    (fun table ->
      ignore
        (Datagen.Tablegen.register (Datagen.Prng.split rng) db ~table
           ~rows:50
           [ Datagen.Tablegen.column "a" ~distinct:10 ]))
    [ "t1"; "t2" ];
  (db, Query.make ~tables:[ "t1"; "t2" ] [])

let expect_invalid_query name f =
  match f () with
  | _ -> Alcotest.fail (name ^ ": expected Invalid_query")
  | exception Els.Els_error.Error (Els.Els_error.Invalid_query _) -> ()
  | exception exn ->
    Alcotest.fail
      (Printf.sprintf "%s: expected Invalid_query, got %s" name
         (Printexc.to_string exn))

let test_hash_only_cartesian_is_structured_error () =
  let db, q = cartesian_db_query () in
  let profile = Els.prepare Els.Config.els db q in
  expect_invalid_query "dp.plan_order" (fun () ->
      Optimizer.Dp.plan_order ~methods:[ Exec.Plan.Hash ] profile
        q.Query.tables);
  expect_invalid_query "dp" (fun () ->
      Optimizer.Dp.optimize ~methods:[ Exec.Plan.Hash ] profile q);
  expect_invalid_query "greedy" (fun () ->
      Optimizer.Greedy.optimize ~methods:[ Exec.Plan.Hash ] profile q);
  expect_invalid_query "random_walk" (fun () ->
      Optimizer.Random_walk.optimize ~methods:[ Exec.Plan.Hash ] profile q)

(* --- Executor cancellation --- *)

let test_executor_cancellation_consistent () =
  let db, q = chain 5 3 in
  let choice = Optimizer.choose Els.Config.els db q in
  let budget = Rel.Budget.create ~row_budget:10 () in
  let rows, counters, _ =
    Exec.Executor.count_result ~budget db choice.Optimizer.plan
  in
  (match rows with
  | Error (Els.Els_error.Budget_exhausted { resource; _ }) ->
    Alcotest.(check bool) "rows resource" true (resource = Rel.Budget.Rows)
  | Error e ->
    Alcotest.fail ("unexpected error: " ^ Els.Els_error.to_string e)
  | Ok _ -> Alcotest.fail "a 10-row budget must cancel this join");
  Alcotest.(check int)
    "rows_used = read + output"
    (counters.Exec.Counters.tuples_read + counters.Exec.Counters.tuples_output)
    (Rel.Budget.rows_used budget)

let test_executor_exn_style () =
  let db, q = chain 5 3 in
  let choice = Optimizer.choose Els.Config.els db q in
  let budget = Rel.Budget.create ~row_budget:5 () in
  match Exec.Executor.count ~budget db choice.Optimizer.plan with
  | _ -> Alcotest.fail "expected Budget_exhausted"
  | exception Els.Els_error.Error (Els.Els_error.Budget_exhausted _) -> ()

let test_executor_unbudgeted_identity () =
  let db, q = chain 6 3 in
  let choice = Optimizer.choose Els.Config.els db q in
  let plain_rows, plain_counters, _ =
    Exec.Executor.count db choice.Optimizer.plan
  in
  let budget = Rel.Budget.create ~row_budget:10_000_000 () in
  let rows, counters, _ = Exec.Executor.count ~budget db choice.Optimizer.plan in
  Alcotest.(check int) "same result" plain_rows rows;
  Alcotest.(check int)
    "same work" (Exec.Counters.total_work plain_counters)
    (Exec.Counters.total_work counters);
  Alcotest.(check int)
    "budget mirrored the counters"
    (counters.Exec.Counters.tuples_read + counters.Exec.Counters.tuples_output)
    (Rel.Budget.rows_used budget)

(* --- Fault crossing and soak smoke --- *)

let test_fault_budget_crossing () =
  let outcomes =
    Harness.Fault.run
      ~make_budget:(fun () -> Rel.Budget.create ~node_budget:3 ())
      ~strictness:Catalog.Validate.Repair ()
  in
  Alcotest.(check bool) "still all pass" true (Harness.Fault.all_pass outcomes);
  Alcotest.(check bool)
    "budget actually tripped" true
    (Harness.Fault.budget_trips outcomes > 0)

let test_soak_smoke () =
  let summary = Harness.Soak.run ~seed:42 ~iters:40 () in
  Alcotest.(check bool)
    (Harness.Soak.render summary)
    true
    (Harness.Soak.pass summary);
  Alcotest.(check int) "ran all iterations" 40 summary.Harness.Soak.iterations;
  Alcotest.(check bool)
    "budgets exercised" true
    (summary.Harness.Soak.budget_trips > 0)

(* --- QCheck properties --- *)

let prop_budget_monotone =
  QCheck2.Test.make ~count:60
    ~name:"larger node budget never yields a costlier plan"
    QCheck2.Gen.(
      let* seed = int_range 1 500 in
      let* n = int_range 3 6 in
      let* small = int_range 0 200 in
      let* extra = int_range 0 2_000 in
      return (seed, n, small, small + extra))
    (fun (seed, n, small, large) ->
      let db, q = chain seed n in
      let profile = Els.prepare Els.Config.els db q in
      let cost budget_n =
        let budget = Rel.Budget.create ~node_budget:budget_n () in
        (fst (Optimizer.Dp.optimize_traced ~methods ~budget profile q))
          .Optimizer.Dp.cost
      in
      cost large <= cost small)

let prop_cancellation_consistent =
  QCheck2.Test.make ~count:60
    ~name:"cancelled execution leaves rows_used = read + output"
    QCheck2.Gen.(
      let* seed = int_range 1 500 in
      let* n = int_range 2 4 in
      let* row_budget = int_range 0 3_000 in
      return (seed, n, row_budget))
    (fun (seed, n, row_budget) ->
      let db, q = chain seed n in
      let choice = Optimizer.choose Els.Config.els db q in
      let budget = Rel.Budget.create ~row_budget () in
      let _, counters, _ =
        Exec.Executor.count_result ~budget db choice.Optimizer.plan
      in
      Rel.Budget.rows_used budget
      = counters.Exec.Counters.tuples_read
        + counters.Exec.Counters.tuples_output)

let prop_unbudgeted_equals_huge_budget =
  QCheck2.Test.make ~count:40
    ~name:"huge budget is bit-identical to no budget"
    QCheck2.Gen.(
      let* seed = int_range 1 500 in
      let* n = int_range 2 6 in
      return (seed, n))
    (fun (seed, n) ->
      let db, q = chain seed n in
      let profile = Els.prepare Els.Config.els db q in
      let plain = Optimizer.Dp.optimize ~methods profile q in
      let budget = Rel.Budget.create ~node_budget:50_000_000 () in
      let budgeted = Optimizer.Dp.optimize ~methods ~budget profile q in
      Float.equal plain.Optimizer.Dp.cost budgeted.Optimizer.Dp.cost
      && Exec.Plan.join_order plain.Optimizer.Dp.plan
         = Exec.Plan.join_order budgeted.Optimizer.Dp.plan)

let suite =
  [
    Alcotest.test_case "budget: create validates" `Quick test_create_validates;
    Alcotest.test_case "budget: node limit trips and sticks" `Quick
      test_node_limit_sticky;
    Alcotest.test_case "budget: node trip spares the row path" `Quick
      test_node_trip_spares_row_path;
    Alcotest.test_case "budget: row limit" `Quick test_row_limit;
    Alcotest.test_case "budget: fake-clock deadline" `Quick
      test_fake_clock_deadline;
    Alcotest.test_case "budget: row deadline stride" `Quick
      test_row_deadline_stride;
    Alcotest.test_case "dp: unexhausted budget is bit-identical" `Quick
      test_unbudgeted_identity;
    Alcotest.test_case "choose: provenance plumbed through" `Quick
      test_choose_provenance_plumbed;
    Alcotest.test_case "dp: deadline degrades deterministically" `Quick
      test_deadline_degrades_deterministically;
    Alcotest.test_case "regression: hash-only cartesian is a structured error"
      `Quick test_hash_only_cartesian_is_structured_error;
    Alcotest.test_case "executor: cancellation is counter-consistent" `Quick
      test_executor_cancellation_consistent;
    Alcotest.test_case "executor: exception-style budget error" `Quick
      test_executor_exn_style;
    Alcotest.test_case "executor: huge budget changes nothing" `Quick
      test_executor_unbudgeted_identity;
    Alcotest.test_case "fault: budget crossing still passes" `Quick
      test_fault_budget_crossing;
    Alcotest.test_case "soak: smoke run passes" `Quick test_soak_smoke;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_budget_monotone; prop_cancellation_consistent;
        prop_unbudgeted_equals_huge_budget;
      ]
