(* Unit tests for the cost model and the Selinger enumerator. *)

let check_float = Helpers.check_float
let c t col = Query.Cref.v t col

(* --- Cost model --- *)

let test_sort_cost () =
  check_float "empty" 0. (Optimizer.Cost.sort_cost 0.);
  check_float "single" 0. (Optimizer.Cost.sort_cost 1.);
  check_float ~eps:1e-9 "n log2 n" 8. (Optimizer.Cost.sort_cost 4.);
  Alcotest.(check bool) "monotone" true
    (Optimizer.Cost.sort_cost 1000. > Optimizer.Cost.sort_cost 100.)

let test_join_costs_reflect_estimates () =
  (* The paper's failure mode: with a tiny (under)estimated outer, nested
     loops look nearly free; with the true outer they are catastrophic. *)
  let tiny =
    Optimizer.Cost.nested_loop ~outer_rows:4e-8 ~inner_base_rows:100000.
      ~out_rows:0.
  in
  let honest =
    Optimizer.Cost.nested_loop ~outer_rows:100. ~inner_base_rows:100000.
      ~out_rows:100.
  in
  Alcotest.(check bool) "underestimate hides NLJ cost" true (tiny < 1.);
  Alcotest.(check bool) "honest estimate exposes it" true (honest > 1e6);
  let smj =
    Optimizer.Cost.sort_merge ~outer_rows:100. ~inner_base_rows:100000.
      ~inner_rows:100. ~out_rows:100.
  in
  Alcotest.(check bool) "SMJ beats honest NLJ" true (smj < honest);
  let hj =
    Optimizer.Cost.hash ~outer_rows:100. ~inner_base_rows:100000.
      ~inner_rows:100. ~out_rows:100.
  in
  Alcotest.(check bool) "hash beats honest NLJ" true (hj < honest)

let test_costs_nonnegative () =
  List.iter
    (fun (o, i, r, out) ->
      Alcotest.(check bool) "nl >= 0" true
        (Optimizer.Cost.nested_loop ~outer_rows:o ~inner_base_rows:i
           ~out_rows:out
        >= 0.);
      Alcotest.(check bool) "smj >= 0" true
        (Optimizer.Cost.sort_merge ~outer_rows:o ~inner_base_rows:i
           ~inner_rows:r ~out_rows:out
        >= 0.);
      Alcotest.(check bool) "hj >= 0" true
        (Optimizer.Cost.hash ~outer_rows:o ~inner_base_rows:i ~inner_rows:r
           ~out_rows:out
        >= 0.))
    [ (0., 0., 0., 0.); (-1., 5., 5., -2.); (10., 10., 10., 10.) ]

(* --- DP enumerator --- *)

let s8_db_query scale =
  (Datagen.Section8.build ~scale ~seed:1 (), Datagen.Section8.query_scaled ~scale)

let test_dp_produces_full_plan () =
  let db, q = s8_db_query 50 in
  let profile = Els.prepare Els.Config.els db q in
  let node = Optimizer.Dp.optimize profile q in
  Alcotest.(check int) "all tables" 4
    (List.length (Exec.Plan.join_order node.Optimizer.Dp.plan));
  Alcotest.(check int) "history length" 3
    (List.length (Els.Incremental.history node.Optimizer.Dp.state));
  Alcotest.(check bool) "cost positive" true (node.Optimizer.Dp.cost > 0.)

let test_dp_respects_methods () =
  let db, q = s8_db_query 50 in
  let profile = Els.prepare Els.Config.els db q in
  let node =
    Optimizer.Dp.optimize ~methods:[ Exec.Plan.Nested_loop ] profile q
  in
  let rec methods_of = function
    | Exec.Plan.Scan _ -> []
    | Exec.Plan.Join { method_; outer; inner; _ } ->
      (method_ :: methods_of outer) @ methods_of inner
  in
  Alcotest.(check bool) "only NL used" true
    (List.for_all
       (fun m -> m = Exec.Plan.Nested_loop)
       (methods_of node.Optimizer.Dp.plan));
  Alcotest.(check bool) "no methods rejected" true
    (match Optimizer.Dp.optimize ~methods:[] profile q with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_dp_plan_executes_correctly () =
  let db, q = s8_db_query 20 in
  List.iter
    (fun config ->
      let profile = Els.prepare config db q in
      let node = Optimizer.Dp.optimize profile q in
      let rows, _, _ = Exec.Executor.count db node.Optimizer.Dp.plan in
      (* scale 20: s < 5 over keys 1..50 gives 4 matching rows. *)
      Alcotest.(check int)
        (Printf.sprintf "%s plan result" (Els.Config.name config))
        4 rows)
    [ Els.Config.sm ~ptc:false; Els.Config.sm ~ptc:true; Els.Config.sss;
      Els.Config.els ]

let test_dp_avoids_cartesian_when_possible () =
  let db, q = s8_db_query 50 in
  let profile = Els.prepare (Els.Config.sm ~ptc:false) db q in
  let node = Optimizer.Dp.optimize profile q in
  (* Without closure the only connected orders are along the chain
     s-m-b-g; adjacent tables in the chosen order must share a predicate. *)
  let order = Exec.Plan.join_order node.Optimizer.Dp.plan in
  let adjacent_connected =
    let edges = [ ("s", "m"); ("m", "b"); ("b", "g") ] in
    let connected a b =
      List.exists (fun (x, y) -> (x = a && y = b) || (x = b && y = a)) edges
    in
    let rec check covered = function
      | [] -> true
      | t :: rest ->
        List.exists (fun p -> connected p t) covered && check (t :: covered) rest
    in
    match order with
    | first :: rest -> check [ first ] rest
    | [] -> false
  in
  Alcotest.(check bool) "chain respected" true adjacent_connected

let test_dp_cartesian_fallback () =
  (* A query with no join predicate at all must still plan (as a cross
     product). *)
  let db = Catalog.Db.create () in
  let rng = Datagen.Prng.create 5 in
  ignore
    (Datagen.Tablegen.register (Datagen.Prng.split rng) db ~table:"a" ~rows:10
       [ Datagen.Tablegen.key_column "x" ~rows:10 ]);
  ignore
    (Datagen.Tablegen.register (Datagen.Prng.split rng) db ~table:"b" ~rows:7
       [ Datagen.Tablegen.key_column "y" ~rows:7 ]);
  let q = Query.make ~tables:[ "a"; "b" ] [] in
  let profile = Els.prepare Els.Config.els db q in
  let node = Optimizer.Dp.optimize profile q in
  let rows, _, _ = Exec.Executor.count db node.Optimizer.Dp.plan in
  Alcotest.(check int) "cross product size" 70 rows;
  check_float "estimate matches" 70. node.Optimizer.Dp.state.Els.Incremental.size

let test_scan_filters_placement () =
  let _, q = s8_db_query 10 in
  let profile = Els.prepare Els.Config.els (fst (s8_db_query 10)) q in
  (* Closure gives every table a local predicate. *)
  List.iter
    (fun table ->
      Alcotest.(check int)
        (Printf.sprintf "filter on %s" table)
        1
        (List.length (Els.Profile.scan_filters profile table)))
    [ "s"; "m"; "b"; "g" ];
  (* Without closure, only s has one. *)
  let profile_nc = Els.prepare (Els.Config.sm ~ptc:false) (fst (s8_db_query 10)) q in
  Alcotest.(check int) "only s filtered" 1
    (List.length (Els.Profile.scan_filters profile_nc "s"));
  Alcotest.(check int) "g unfiltered" 0
    (List.length (Els.Profile.scan_filters profile_nc "g"))

let test_choose_reports () =
  let db, q = s8_db_query 50 in
  let choice = Optimizer.choose Els.Config.els db q in
  Alcotest.(check string) "algorithm name" "ELS" choice.Optimizer.algorithm;
  Alcotest.(check int) "estimates per join" 3
    (List.length choice.Optimizer.intermediate_estimates);
  Alcotest.(check bool) "join order covers query" true
    (List.sort compare choice.Optimizer.join_order
    = List.sort compare q.Query.tables);
  (* explain renders without raising *)
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Optimizer.explain ppf choice;
  Format.pp_print_flush ppf ();
  Alcotest.(check bool) "explain nonempty" true (Buffer.length buf > 0)

let test_single_table_query () =
  let db, _ = s8_db_query 50 in
  let q =
    Query.make ~tables:[ "s" ]
      [ Query.Predicate.cmp (c "s" "s") Rel.Cmp.Lt (Rel.Value.Int 5) ]
  in
  let choice = Optimizer.choose Els.Config.els db q in
  let rows, _, _ = Exec.Executor.count db choice.Optimizer.plan in
  Alcotest.(check int) "single-table scan" 4 rows

(* ?estimator re-profiles before enumeration: choosing with base ELS but
   estimator ss must match choosing with the ss-swapped config directly,
   and the reported algorithm name must reflect the swap. *)
let test_choose_estimator_override () =
  let db, q = s8_db_query 50 in
  let overridden =
    Optimizer.choose ~estimator:Els.Estimator.ss Els.Config.els db q
  in
  let direct =
    Optimizer.choose (Els.Config.with_estimator Els.Estimator.ss Els.Config.els)
      db q
  in
  Alcotest.(check string) "same algorithm name" direct.Optimizer.algorithm
    overridden.Optimizer.algorithm;
  Alcotest.(check (list string)) "same join order" direct.Optimizer.join_order
    overridden.Optimizer.join_order;
  Alcotest.(check (list (float 0.))) "same estimates"
    direct.Optimizer.intermediate_estimates
    overridden.Optimizer.intermediate_estimates;
  let baseline = Optimizer.choose Els.Config.els db q in
  Alcotest.(check bool) "override changes the report" false
    (String.equal baseline.Optimizer.algorithm overridden.Optimizer.algorithm)

(* Hex-float goldens of the cost model, captured before [sort_cost]'s
   [log 2] became a module constant: [sort_cost n], and [join_into] for
   each method over rows [x], [2x + 1], [x / 3] and [1.75x] in the outer,
   inner base, inner and output slots. *)
let sort_cost_goldens =
  [
    (0x0p+0, 0x0p+0);
    (0x1p-1, 0x0p+0);
    (0x1p+0, 0x0p+0);
    (0x1.8p+0, 0x1.c1404eadf383ap-1);
    (0x1p+1, 0x1p+1);
    (0x1.8p+1, 0x1.305013ab7ce0fp+2);
    (0x1.dp+2, 0x1.4b869a8794d86p+4);
    (0x1.9p+6, 0x1.4c315bf6707b1p+9);
    (0x1.81cd6c8b43958p+13, 0x1.47bb7d5de0574p+17);
    (0x1.dcd65p+29, 0x1.bd8159a57f1efp+34);
    (0x1.772aa3f848p+51, 0x1.2e316d7d3b196p+57);
  ]

let join_goldens =
  [
    (Exec.Plan.Nested_loop, 0x0p+0, "0x0p+0");
    (Exec.Plan.Nested_loop, 0x1p-1, "0x1.ep+0");
    (Exec.Plan.Nested_loop, 0x1p+0, "0x1.3p+2");
    (Exec.Plan.Nested_loop, 0x1.8p+0, "0x1.14p+3");
    (Exec.Plan.Nested_loop, 0x1p+1, "0x1.bp+3");
    (Exec.Plan.Nested_loop, 0x1.8p+1, "0x1.a4p+4");
    (Exec.Plan.Nested_loop, 0x1.dp+2, "0x1.f44p+6");
    (Exec.Plan.Nested_loop, 0x1.9p+6, "0x1.3cccp+14");
    (Exec.Plan.Nested_loop, 0x1.81cd6c8b43958p+13, "0x1.22be0c92c829dp+28");
    (Exec.Plan.Nested_loop, 0x1.dcd65p+29, "0x1.bc16d67f2b1acp+60");
    (Exec.Plan.Nested_loop, 0x1.772aa3f848p+51, "0x1.12e6f9bdccb7p+104");
    (Exec.Plan.Sort_merge, 0x0p+0, "0x1p+0");
    (Exec.Plan.Sort_merge, 0x1p-1, "0x1.c555555555555p+1");
    (Exec.Plan.Sort_merge, 0x1p+0, "0x1.8555555555555p+2");
    (Exec.Plan.Sort_merge, 0x1.8p+0, "0x1.301404eadf384p+3");
    (Exec.Plan.Sort_merge, 0x1p+1, "0x1.a555555555555p+3");
    (Exec.Plan.Sort_merge, 0x1.8p+1, "0x1.501404eadf384p+4");
    (Exec.Plan.Sort_merge, 0x1.dp+2, "0x1.ed353a5f578b6p+5");
    (Exec.Plan.Sort_merge, 0x1.9p+6, "0x1.4f9651c9bd1f6p+10");
    (Exec.Plan.Sort_merge, 0x1.81cd6c8b43958p+13, "0x1.1167ec2bdfb22p+18");
    (Exec.Plan.Sort_merge, 0x1.dcd65p+29, "0x1.4af0e5a0ed0e1p+35");
    (Exec.Plan.Sort_merge, 0x1.772aa3f848p+51, "0x1.ada01fb299c16p+57");
    (Exec.Plan.Hash, 0x0p+0, "0x1p+0");
    (Exec.Plan.Hash, 0x1p-1, "0x1.c555555555555p+1");
    (Exec.Plan.Hash, 0x1p+0, "0x1.8555555555556p+2");
    (Exec.Plan.Hash, 0x1.8p+0, "0x1.14p+3");
    (Exec.Plan.Hash, 0x1p+1, "0x1.6555555555556p+3");
    (Exec.Plan.Hash, 0x1.8p+1, "0x1.04p+4");
    (Exec.Plan.Hash, 0x1.dp+2, "0x1.2ed5555555556p+5");
    (Exec.Plan.Hash, 0x1.9p+6, "0x1.fd55555555556p+8");
    (Exec.Plan.Hash, 0x1.81cd6c8b43958p+13, "0x1.ea4c649ba5e34p+15");
    (Exec.Plan.Hash, 0x1.dcd65p+29, "0x1.2efd82d655556p+32");
    (Exec.Plan.Hash, 0x1.772aa3f848p+51, "0x1.dcc63060db8p+53");
    (Exec.Plan.Index_nested_loop, 0x0p+0, "0x1p+0");
    (Exec.Plan.Index_nested_loop, 0x1p-1, "0x1.1p+2");
    (Exec.Plan.Index_nested_loop, 0x1p+0, "0x1.ep+2");
    (Exec.Plan.Index_nested_loop, 0x1.8p+0, "0x1.58p+3");
    (Exec.Plan.Index_nested_loop, 0x1p+1, "0x1.cp+3");
    (Exec.Plan.Index_nested_loop, 0x1.8p+1, "0x1.48p+4");
    (Exec.Plan.Index_nested_loop, 0x1.dp+2, "0x1.81p+5");
    (Exec.Plan.Index_nested_loop, 0x1.9p+6, "0x1.458p+9");
    (Exec.Plan.Index_nested_loop, 0x1.81cd6c8b43958p+13, "0x1.3977e83126e98p+16");
    (Exec.Plan.Index_nested_loop, 0x1.dcd65p+29, "0x1.836e2101p+32");
    (Exec.Plan.Index_nested_loop, 0x1.772aa3f848p+51, "0x1.30d2a539ba8p+54");
  ]

let test_cost_goldens () =
  List.iter
    (fun (n, want) ->
      Alcotest.(check string)
        (Printf.sprintf "sort_cost %h" n)
        (Printf.sprintf "%h" want)
        (Printf.sprintf "%h" (Optimizer.Cost.sort_cost n)))
    sort_cost_goldens;
  let io = Array.make Optimizer.Cost.slots 0. in
  List.iter
    (fun (method_, x, want) ->
      io.(Optimizer.Cost.slot_outer_rows) <- x;
      io.(Optimizer.Cost.slot_inner_base_rows) <- (2. *. x) +. 1.;
      io.(Optimizer.Cost.slot_inner_rows) <- x /. 3.;
      io.(Optimizer.Cost.slot_out_rows) <- x *. 1.75;
      Optimizer.Cost.join_into method_ io;
      Alcotest.(check string)
        (Printf.sprintf "%s at %h" (Exec.Plan.method_name method_) x)
        want
        (Printf.sprintf "%h" io.(Optimizer.Cost.slot_cost)))
    join_goldens

let suite =
  [
    Alcotest.test_case "cost: sort" `Quick test_sort_cost;
    Alcotest.test_case "cost: hex goldens" `Quick test_cost_goldens;
    Alcotest.test_case "cost: estimates drive join choice" `Quick
      test_join_costs_reflect_estimates;
    Alcotest.test_case "cost: non-negative" `Quick test_costs_nonnegative;
    Alcotest.test_case "dp: full plan" `Quick test_dp_produces_full_plan;
    Alcotest.test_case "dp: method restriction" `Quick test_dp_respects_methods;
    Alcotest.test_case "dp: plans execute correctly" `Quick
      test_dp_plan_executes_correctly;
    Alcotest.test_case "dp: avoids cartesians" `Quick
      test_dp_avoids_cartesian_when_possible;
    Alcotest.test_case "dp: cartesian fallback" `Quick test_dp_cartesian_fallback;
    Alcotest.test_case "dp: scan filter placement" `Quick
      test_scan_filters_placement;
    Alcotest.test_case "choose: reporting" `Quick test_choose_reports;
    Alcotest.test_case "choose: estimator override" `Quick
      test_choose_estimator_override;
    Alcotest.test_case "single-table query" `Quick test_single_table_query;
  ]
