(* Unit tests for the execution engine: operators, joins, counters,
   reference execution. *)

let int_ n = Rel.Value.Int n
let c t col = Query.Cref.v t col

let mk_relation table cols rows =
  let schema =
    Rel.Schema.make
      (List.map
         (fun name -> Rel.Schema.column ~table ~name Rel.Value.Ty_int)
         cols)
  in
  Rel.Relation.of_tuples schema
    (List.map (fun vals -> Rel.Tuple.of_list (List.map (fun v -> int_ v) vals)) rows)

(* r(a, b) and s(a, c) with a small overlap, including duplicates. *)
let r () = mk_relation "r" [ "a"; "b" ] [ [1;10]; [2;20]; [2;21]; [3;30]; [5;50] ]
let s () = mk_relation "s" [ "a"; "c" ] [ [2;200]; [2;201]; [3;300]; [4;400] ]

let join_pred = Query.Predicate.col_eq (c "r" "a") (c "s" "a")

(* Expected r ⋈ s on a: 2 r-rows with a=2 x 2 s-rows + 1x1 for a=3 = 5. *)
let expected_join_count = 5

let sorted_rows rel =
  List.sort compare
    (List.map Array.to_list (Rel.Relation.to_list rel))

let run_join method_ =
  let counters = Exec.Counters.create () in
  let outer () = Exec.Operator.of_relation (r ()) in
  let inner () = Exec.Operator.of_relation (s ()) in
  let op =
    match method_ with
    | `Nl ->
      Exec.Nested_loop.join counters [ join_pred ] ~outer:(outer ())
        ~inner_schema:(Rel.Relation.schema (s ())) ~make_inner:inner
    | `Hash ->
      Exec.Hash_join.join counters [ join_pred ] ~outer:(outer ())
        ~inner:(inner ())
    | `Sm ->
      Exec.Sort_merge.join counters [ join_pred ] ~outer:(outer ())
        ~inner:(inner ())
  in
  (Exec.Operator.to_relation op, counters)

let test_scan_and_filter () =
  let counters = Exec.Counters.create () in
  let op =
    Exec.Scan.relation counters
      ~filters:[ Query.Predicate.cmp (c "r" "a") Rel.Cmp.Ge (int_ 2) ]
      (r ())
  in
  let out = Exec.Operator.to_relation op in
  Alcotest.(check int) "filtered rows" 4 (Rel.Relation.cardinality out);
  Alcotest.(check int) "all tuples read" 5 counters.Exec.Counters.tuples_read;
  Alcotest.(check int) "one comparison per tuple" 5
    counters.Exec.Counters.comparisons

let test_three_join_methods_agree () =
  let nl, _ = run_join `Nl in
  let hj, _ = run_join `Hash in
  let sm, _ = run_join `Sm in
  Alcotest.(check int) "NL count" expected_join_count (Rel.Relation.cardinality nl);
  Alcotest.(check int) "HJ count" expected_join_count (Rel.Relation.cardinality hj);
  Alcotest.(check int) "SM count" expected_join_count (Rel.Relation.cardinality sm);
  Alcotest.(check bool) "NL = HJ rows" true (sorted_rows nl = sorted_rows hj);
  Alcotest.(check bool) "NL = SM rows" true (sorted_rows nl = sorted_rows sm)

let test_join_output_schema () =
  let out, _ = run_join `Hash in
  let schema = Rel.Relation.schema out in
  Alcotest.(check int) "arity 4" 4 (Rel.Schema.arity schema);
  Alcotest.(check (option int)) "left columns first" (Some 0)
    (Rel.Schema.index_of schema ~table:"r" ~name:"a");
  Alcotest.(check (option int)) "right columns after" (Some 2)
    (Rel.Schema.index_of schema ~table:"s" ~name:"a")

let test_null_keys_never_match () =
  let r =
    Rel.Relation.of_tuples
      (Rel.Schema.make [ Rel.Schema.column ~table:"r" ~name:"a" Rel.Value.Ty_int ])
      [ [| Rel.Value.Null |]; [| int_ 1 |] ]
  in
  let s =
    Rel.Relation.of_tuples
      (Rel.Schema.make [ Rel.Schema.column ~table:"s" ~name:"a" Rel.Value.Ty_int ])
      [ [| Rel.Value.Null |]; [| int_ 1 |] ]
  in
  let pred = Query.Predicate.col_eq (c "r" "a") (c "s" "a") in
  let count method_ =
    let counters = Exec.Counters.create () in
    let out =
      match method_ with
      | `Nl ->
        Exec.Nested_loop.join counters [ pred ]
          ~outer:(Exec.Operator.of_relation r)
          ~inner_schema:(Rel.Relation.schema s)
          ~make_inner:(fun () -> Exec.Operator.of_relation s)
      | `Hash ->
        Exec.Hash_join.join counters [ pred ]
          ~outer:(Exec.Operator.of_relation r)
          ~inner:(Exec.Operator.of_relation s)
      | `Sm ->
        Exec.Sort_merge.join counters [ pred ]
          ~outer:(Exec.Operator.of_relation r)
          ~inner:(Exec.Operator.of_relation s)
    in
    Exec.Operator.count out
  in
  Alcotest.(check int) "NL" 1 (count `Nl);
  Alcotest.(check int) "HJ" 1 (count `Hash);
  Alcotest.(check int) "SM" 1 (count `Sm)

let test_cartesian_nested_loop () =
  let counters = Exec.Counters.create () in
  let op =
    Exec.Nested_loop.join counters []
      ~outer:(Exec.Operator.of_relation (r ()))
      ~inner_schema:(Rel.Relation.schema (s ()))
      ~make_inner:(fun () -> Exec.Operator.of_relation (s ()))
  in
  Alcotest.(check int) "cross product" 20 (Exec.Operator.count op)

let test_equi_methods_require_keys () =
  let counters = Exec.Counters.create () in
  Alcotest.(check bool) "hash join needs a key" true
    (match
       Exec.Hash_join.join counters []
         ~outer:(Exec.Operator.of_relation (r ()))
         ~inner:(Exec.Operator.of_relation (s ()))
     with
    | exception Invalid_argument _ -> true
    | (_ : Exec.Operator.t) -> false);
  Alcotest.(check bool) "sort-merge needs a key" true
    (match
       Exec.Sort_merge.join counters []
         ~outer:(Exec.Operator.of_relation (r ()))
         ~inner:(Exec.Operator.of_relation (s ()))
     with
    | exception Invalid_argument _ -> true
    | (_ : Exec.Operator.t) -> false)

let test_residual_predicates () =
  (* Join on a with residual c > 200: keeps (2,200.. no), (2,201),
     (3,300): residual drops c=200 pair; counts 2x matches: rows with a=2
     pair (2 r-rows x s(2,201)) + a=3 -> 2 + 1 = 3. *)
  let residual = Query.Predicate.cmp (c "s" "c") Rel.Cmp.Gt (int_ 200) in
  let counters = Exec.Counters.create () in
  let out =
    Exec.Hash_join.join counters [ join_pred; residual ]
      ~outer:(Exec.Operator.of_relation (r ()))
      ~inner:(Exec.Operator.of_relation (s ()))
  in
  Alcotest.(check int) "residual applied" 3 (Exec.Operator.count out)

let test_nested_loop_rescans_charge () =
  let counters = Exec.Counters.create () in
  let inner_rel = s () in
  let op =
    Exec.Nested_loop.join counters [ join_pred ]
      ~outer:(Exec.Operator.of_relation (r ()))
      ~inner_schema:(Rel.Relation.schema inner_rel)
      ~make_inner:(fun () -> Exec.Scan.relation counters inner_rel)
  in
  ignore (Exec.Operator.count op);
  (* 5 outer tuples x 4 inner tuples read per rescan. *)
  Alcotest.(check int) "rescans charged" 20 counters.Exec.Counters.tuples_read

let test_project_and_count () =
  let op = Exec.Operator.of_relation (r ()) in
  let projected = Exec.Project.columns [ c "r" "b" ] op in
  let out = Exec.Operator.to_relation projected in
  Alcotest.(check int) "arity 1" 1 (Rel.Schema.arity (Rel.Relation.schema out));
  Alcotest.(check int) "rows kept" 5 (Rel.Relation.cardinality out);
  Alcotest.(check int) "count_star" 5
    (Exec.Project.count_star (Exec.Operator.of_relation (r ())))

let test_operator_utilities () =
  let schema =
    Rel.Schema.make [ Rel.Schema.column ~table:"t" ~name:"a" Rel.Value.Ty_int ]
  in
  let op = Exec.Operator.of_list schema [ [| int_ 1 |]; [| int_ 2 |] ] in
  Alcotest.(check int) "fold sum" 3
    (Exec.Operator.fold (fun acc t -> acc + Rel.Value.int_exn t.(0)) 0 op);
  let op2 = Exec.Operator.of_list schema [] in
  Alcotest.(check int) "empty count" 0 (Exec.Operator.count op2)

(* Executor over a stored catalog. *)
let exec_db () =
  let db = Catalog.Db.create () in
  ignore (Catalog.Analyze.register db ~name:"r" (mk_relation "r" [ "a"; "b" ]
    [ [1;10]; [2;20]; [2;21]; [3;30]; [5;50] ]));
  ignore (Catalog.Analyze.register db ~name:"s" (mk_relation "s" [ "a"; "c" ]
    [ [2;200]; [2;201]; [3;300]; [4;400] ]));
  db

let test_executor_run_plan () =
  let db = exec_db () in
  let plan =
    Exec.Plan.Join
      {
        method_ = Exec.Plan.Hash;
        outer = Exec.Plan.scan ~filters:[] "r";
        inner = Exec.Plan.scan ~filters:[] "s";
        predicates = [ join_pred ];
      }
  in
  let result = Exec.Executor.run db plan in
  Alcotest.(check int) "rows" expected_join_count result.Exec.Executor.row_count;
  Alcotest.(check bool) "work recorded" true
    (Exec.Counters.total_work result.Exec.Executor.counters > 0);
  let rows, _, _ = Exec.Executor.count db plan in
  Alcotest.(check int) "count agrees" expected_join_count rows

let test_executor_run_query () =
  let db = exec_db () in
  let q =
    Query.make ~tables:[ "r"; "s" ]
      [ join_pred; Query.Predicate.cmp (c "s" "c") Rel.Cmp.Gt (int_ 200) ]
  in
  let result = Exec.Executor.run_query db q in
  Alcotest.(check int) "reference result" 3 result.Exec.Executor.row_count

let test_executor_cartesian_query () =
  let db = exec_db () in
  let q = Query.make ~tables:[ "r"; "s" ] [] in
  Alcotest.(check int) "cartesian" 20
    (Exec.Executor.run_query db q).Exec.Executor.row_count

let test_plan_rendering () =
  let plan =
    Exec.Plan.Join
      {
        method_ = Exec.Plan.Sort_merge;
        outer = Exec.Plan.scan ~filters:[] "r";
        inner = Exec.Plan.scan ~filters:[] "s";
        predicates = [ join_pred ];
      }
  in
  Alcotest.(check string) "one-liner" "(r SM s)" (Exec.Plan.to_string plan);
  Alcotest.(check (list string)) "join order" [ "r"; "s" ]
    (Exec.Plan.join_order plan)

(* --- Golden executor accounting -----------------------------------------

   The counters are the measure Section 8's result is read in, so they are
   pinned exactly: a rewrite of the operators must reproduce every figure
   below, including the work done when a budget cancels a run midway.
   Per scenario and join-method set: the ELS plan's COUNT and counters;
   its outcome (rows, or the cancellation message) and counters under row
   budgets 7, 333 and 5000, with the budget's rows_used (always tuples
   read + output); and a digest of the rows [Executor.run] returns, in
   order. Per scenario, also the reference execution's counters. *)

let golden_scenarios () =
  let spec (s : Datagen.Workload.spec) =
    (s.Datagen.Workload.db, s.Datagen.Workload.query)
  in
  let comparison op n_tables seed =
    spec
      (Datagen.Workload.comparison ~rows_range:(20, 60) ~distinct_range:(5, 30)
         ~op ~seed ~n_tables ())
  in
  [
    ( "section8",
      ( Datagen.Section8.build ~scale:20 ~seed:1 (),
        Datagen.Section8.query_scaled ~scale:20 ) );
    ( "zipf-star",
      spec
        (Datagen.Workload.star ~fact_rows:200 ~dim_rows_range:(10, 40)
           ~distinct_range:(5, 20)
           ~distribution:(Datagen.Distribution.Zipf 1.0)
           ~seed:3 ~n_dims:2 ()) );
    ("lt-chain3", comparison Query.Predicate.Lt 3 5);
    ("band-pair", comparison (Query.Predicate.Band 2.5) 2 7);
    ("ge-pair", comparison Query.Predicate.Ge 2 9);
  ]

let golden_method_sets =
  let open Exec.Plan in
  [
    ("NL", [ Nested_loop ]);
    ("NL+SM", [ Nested_loop; Sort_merge ]);
    ("NL+HJ", [ Nested_loop; Hash ]);
    ("NL+INL", [ Nested_loop; Index_nested_loop ]);
    ("all", [ Nested_loop; Sort_merge; Hash; Index_nested_loop ]);
  ]

let counters_line (k : Exec.Counters.t) =
  Printf.sprintf "r%d c%d o%d" k.Exec.Counters.tuples_read
    k.Exec.Counters.comparisons k.Exec.Counters.tuples_output

let budgeted_line db plan limit =
  let budget = Rel.Budget.create ~row_budget:limit () in
  let outcome, k, _ = Exec.Executor.count_result ~budget db plan in
  let used = Rel.Budget.rows_used budget in
  Alcotest.(check int) "rows_used = read + output"
    (k.Exec.Counters.tuples_read + k.Exec.Counters.tuples_output) used;
  Printf.sprintf "b%d %s %s used=%d" limit
    (match outcome with
    | Ok rows -> string_of_int rows
    | Error e -> Els.Els_error.to_string e)
    (counters_line k) used

let rows_digest (result : Exec.Executor.result) =
  Rel.Relation.to_list result.Exec.Executor.relation
  |> List.map (Format.asprintf "%a" Rel.Tuple.pp)
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

(* Five lines per method set, then the reference execution's line. *)
let golden_lines db query =
  List.concat_map
    (fun (set, methods) ->
      let plan =
        (Optimizer.choose ~methods Els.Config.els db query).Optimizer.plan
      in
      let rows, k, _ = Exec.Executor.count db plan in
      List.map (fun line -> set ^ " " ^ line)
        ((Printf.sprintf "%s count=%d %s" (Exec.Plan.to_string plan) rows
            (counters_line k)
         :: List.map (budgeted_line db plan) [ 7; 333; 5000 ])
        @ [ "run " ^ rows_digest (Exec.Executor.run db plan) ]))
    golden_method_sets
  @ [
      (let result = Exec.Executor.run_query db query in
       Printf.sprintf "run_query count=%d %s" result.Exec.Executor.row_count
         (counters_line result.Exec.Executor.counters));
    ]

let golden_expected =
  [
    ( "section8",
      [
        "NL (((g NL s) NL m) NL b) count=4 r17200 c17296 o12";
        "NL b7 rows budget exhausted at executor: cancelled after 8 tuples read, 0 tuples output r8 c7 o0 used=8";
        "NL b333 rows budget exhausted at executor: cancelled after 334 tuples read, 0 tuples output r334 c333 o0 used=334";
        "NL b5000 rows budget exhausted at executor: cancelled after 4998 tuples read, 3 tuples output r4998 c5021 o3 used=5001";
        "NL run f029c7018ec0d30240ba9d4907db2094";
        "NL+SM (((s SM m) SM b) SM g) count=4 r8050 c8116 o12";
        "NL+SM b7 rows budget exhausted at executor: cancelled after 8 tuples read, 0 tuples output r8 c7 o0 used=8";
        "NL+SM b333 rows budget exhausted at executor: cancelled after 334 tuples read, 0 tuples output r334 c339 o0 used=334";
        "NL+SM b5000 rows budget exhausted at executor: cancelled after 4993 tuples read, 8 tuples output r4993 c5042 o8 used=5001";
        "NL+SM run 1536d475e6c75c6824633ddf70a3e6c4";
        "NL+HJ (((s HJ m) HJ b) HJ g) count=4 r8050 c8086 o12";
        "NL+HJ b7 rows budget exhausted at executor: cancelled after 8 tuples read, 0 tuples output r8 c7 o0 used=8";
        "NL+HJ b333 rows budget exhausted at executor: cancelled after 334 tuples read, 0 tuples output r334 c333 o0 used=334";
        "NL+HJ b5000 rows budget exhausted at executor: cancelled after 5001 tuples read, 0 tuples output r5001 c5000 o0 used=5001";
        "NL+HJ run 22fa5160f2ea43ad3a5c9623b0b63669";
        "NL+INL (((s INL m) INL b) INL g) count=4 r8062 c86 o12";
        "NL+INL b7 rows budget exhausted at executor: cancelled after 500 tuples read, 0 tuples output r500 c0 o0 used=500";
        "NL+INL b333 rows budget exhausted at executor: cancelled after 500 tuples read, 0 tuples output r500 c0 o0 used=500";
        "NL+INL b5000 rows budget exhausted at executor: cancelled after 8000 tuples read, 0 tuples output r8000 c0 o0 used=8000";
        "NL+INL run 22fa5160f2ea43ad3a5c9623b0b63669";
        "all (((s HJ m) HJ b) HJ g) count=4 r8050 c8086 o12";
        "all b7 rows budget exhausted at executor: cancelled after 8 tuples read, 0 tuples output r8 c7 o0 used=8";
        "all b333 rows budget exhausted at executor: cancelled after 334 tuples read, 0 tuples output r334 c333 o0 used=334";
        "all b5000 rows budget exhausted at executor: cancelled after 5001 tuples read, 0 tuples output r5001 c5000 o0 used=5001";
        "all run 22fa5160f2ea43ad3a5c9623b0b63669";
        "run_query count=4 r8050 c74 o12";
      ] );
    ( "zipf-star",
      [
        "NL ((d1 NL fact) NL d2) count=816 r7620 c7610 o981";
        "NL b7 rows budget exhausted at executor: cancelled after 7 tuples read, 1 tuples output r7 c5 o1 used=8";
        "NL b333 rows budget exhausted at executor: cancelled after 302 tuples read, 32 tuples output r302 c300 o32 used=334";
        "NL b5000 rows budget exhausted at executor: cancelled after 4404 tuples read, 597 tuples output r4404 c4398 o597 used=5001";
        "NL run d43486ae9f62f7013ff6ed8c412ca52a";
        "NL+SM ((fact SM d1) SM d2) count=816 r244 c4209 o981";
        "NL+SM b7 rows budget exhausted at executor: cancelled after 8 tuples read, 0 tuples output r8 c0 o0 used=8";
        "NL+SM b333 rows budget exhausted at executor: cancelled after 210 tuples read, 124 tuples output r210 c2144 o124 used=334";
        "NL+SM b5000 816 r244 c4209 o981 used=1225";
        "NL+SM run 4cec50be6430abcd0c49cc3324e25a1e";
        "NL+HJ ((fact HJ d1) HJ d2) count=816 r244 c1346 o981";
        "NL+HJ b7 rows budget exhausted at executor: cancelled after 8 tuples read, 0 tuples output r8 c0 o0 used=8";
        "NL+HJ b333 rows budget exhausted at executor: cancelled after 90 tuples read, 244 tuples output r90 c331 o244 used=334";
        "NL+HJ b5000 816 r244 c1346 o981 used=1225";
        "NL+HJ run daa7c5aabda70cf352768f7e5077a3c1";
        "NL+INL ((d1 INL fact) INL d2) count=816 r1225 c175 o981";
        "NL+INL b7 rows budget exhausted at executor: cancelled after 200 tuples read, 0 tuples output r200 c0 o0 used=200";
        "NL+INL b333 rows budget exhausted at executor: cancelled after 285 tuples read, 49 tuples output r285 c10 o49 used=334";
        "NL+INL b5000 816 r1225 c175 o981 used=2206";
        "NL+INL run e4047c391ff464ee21bac8f3283837f7";
        "all ((d1 INL fact) HJ d2) count=816 r409 c991 o981";
        "all b7 rows budget exhausted at executor: cancelled after 200 tuples read, 0 tuples output r200 c0 o0 used=200";
        "all b333 rows budget exhausted at executor: cancelled after 250 tuples read, 84 tuples output r250 c86 o84 used=334";
        "all b5000 816 r409 c991 o981 used=1390";
        "all run e4047c391ff464ee21bac8f3283837f7";
        "run_query count=816 r244 c1346 o981";
      ] );
    ( "lt-chain3",
      [
        "NL ((c2 NL c1) NL c3) count=4376 r7889 c7840 o4474";
        "NL b7 rows budget exhausted at executor: cancelled after 8 tuples read, 0 tuples output r8 c6 o0 used=8";
        "NL b333 rows budget exhausted at executor: cancelled after 214 tuples read, 120 tuples output r214 c212 o120 used=334";
        "NL b5000 rows budget exhausted at executor: cancelled after 3214 tuples read, 1787 tuples output r3214 c3193 o1787 used=5001";
        "NL run 0bcf52d646cfae06ecc66465e6a45fca";
        "NL+SM ((c1 SM c2) SM c3) count=4376 r154 c2057 o4474";
        "NL+SM b7 rows budget exhausted at executor: cancelled after 8 tuples read, 0 tuples output r8 c0 o0 used=8";
        "NL+SM b333 rows budget exhausted at executor: cancelled after 154 tuples read, 180 tuples output r154 c1982 o180 used=334";
        "NL+SM b5000 4376 r154 c2057 o4474 used=4628";
        "NL+SM run 6df648c0bebdf381d1b00e482343cc5d";
        "NL+HJ ((c1 HJ c2) NL c3) count=4376 r5489 c5538 o4474";
        "NL+HJ b7 rows budget exhausted at executor: cancelled after 8 tuples read, 0 tuples output r8 c0 o0 used=8";
        "NL+HJ b333 rows budget exhausted at executor: cancelled after 203 tuples read, 131 tuples output r203 c156 o131 used=334";
        "NL+HJ b5000 rows budget exhausted at executor: cancelled after 2756 tuples read, 2245 tuples output r2756 c2755 o2245 used=5001";
        "NL+HJ run a50d73f25d90c6fc00eef66b0f571abe";
        "NL+INL ((c2 INL c1) NL c3) count=4376 r5587 c5439 o4474";
        "NL+INL b7 rows budget exhausted at executor: cancelled after 50 tuples read, 0 tuples output r50 c0 o0 used=50";
        "NL+INL b333 rows budget exhausted at executor: cancelled after 200 tuples read, 134 tuples output r200 c147 o134 used=334";
        "NL+INL b5000 rows budget exhausted at executor: cancelled after 2820 tuples read, 2181 tuples output r2820 c2720 o2181 used=5001";
        "NL+INL run 0bcf52d646cfae06ecc66465e6a45fca";
        "all ((c1 HJ c2) SM c3) count=4376 r154 c1485 o4474";
        "all b7 rows budget exhausted at executor: cancelled after 8 tuples read, 0 tuples output r8 c0 o0 used=8";
        "all b333 rows budget exhausted at executor: cancelled after 154 tuples read, 180 tuples output r154 c1410 o180 used=334";
        "all b5000 4376 r154 c1485 o4474 used=4628";
        "all run 6df648c0bebdf381d1b00e482343cc5d";
        "run_query count=4376 r154 c1485 o4474";
      ] );
    ( "band-pair",
      [
        "NL (c2 NL c1) count=334 r1628 c1591 o334";
        "NL b7 rows budget exhausted at executor: cancelled after 6 tuples read, 2 tuples output r6 c5 o2 used=8";
        "NL b333 rows budget exhausted at executor: cancelled after 281 tuples read, 53 tuples output r281 c273 o53 used=334";
        "NL b5000 334 r1628 c1591 o334 used=1962";
        "NL run db3ab842f4c2d4ebaa5bcfde9e4c7134";
        "NL+SM (c1 SM c2) count=334 r80 c616 o334";
        "NL+SM b7 rows budget exhausted at executor: cancelled after 8 tuples read, 0 tuples output r8 c0 o0 used=8";
        "NL+SM b333 rows budget exhausted at executor: cancelled after 80 tuples read, 254 tuples output r80 c596 o254 used=334";
        "NL+SM b5000 334 r80 c616 o334 used=414";
        "NL+SM run 8318a3781d6a61256cf1055948bfac4a";
        "NL+HJ (c2 NL c1) count=334 r1628 c1591 o334";
        "NL+HJ b7 rows budget exhausted at executor: cancelled after 6 tuples read, 2 tuples output r6 c5 o2 used=8";
        "NL+HJ b333 rows budget exhausted at executor: cancelled after 281 tuples read, 53 tuples output r281 c273 o53 used=334";
        "NL+HJ b5000 334 r1628 c1591 o334 used=1962";
        "NL+HJ run db3ab842f4c2d4ebaa5bcfde9e4c7134";
        "NL+INL (c2 NL c1) count=334 r1628 c1591 o334";
        "NL+INL b7 rows budget exhausted at executor: cancelled after 6 tuples read, 2 tuples output r6 c5 o2 used=8";
        "NL+INL b333 rows budget exhausted at executor: cancelled after 281 tuples read, 53 tuples output r281 c273 o53 used=334";
        "NL+INL b5000 334 r1628 c1591 o334 used=1962";
        "NL+INL run db3ab842f4c2d4ebaa5bcfde9e4c7134";
        "all (c1 SM c2) count=334 r80 c616 o334";
        "all b7 rows budget exhausted at executor: cancelled after 8 tuples read, 0 tuples output r8 c0 o0 used=8";
        "all b333 rows budget exhausted at executor: cancelled after 80 tuples read, 254 tuples output r80 c596 o254 used=334";
        "all b5000 334 r80 c616 o334 used=414";
        "all run 8318a3781d6a61256cf1055948bfac4a";
        "run_query count=334 r80 c616 o334";
      ] );
    ( "ge-pair",
      [
        "NL (c2 NL c1) count=893 r1224 c1190 o893";
        "NL b7 rows budget exhausted at executor: cancelled after 5 tuples read, 3 tuples output r5 c3 o3 used=8";
        "NL b333 rows budget exhausted at executor: cancelled after 184 tuples read, 150 tuples output r184 c177 o150 used=334";
        "NL b5000 893 r1224 c1190 o893 used=2117";
        "NL run 3d34e21a5008b2bd8a6a946ee568e970";
        "NL+SM (c1 SM c2) count=893 r69 c485 o893";
        "NL+SM b7 rows budget exhausted at executor: cancelled after 8 tuples read, 0 tuples output r8 c0 o0 used=8";
        "NL+SM b333 rows budget exhausted at executor: cancelled after 69 tuples read, 265 tuples output r69 c444 o265 used=334";
        "NL+SM b5000 893 r69 c485 o893 used=962";
        "NL+SM run ade578292bdb92cd0b5e0e8e74a93346";
        "NL+HJ (c2 NL c1) count=893 r1224 c1190 o893";
        "NL+HJ b7 rows budget exhausted at executor: cancelled after 5 tuples read, 3 tuples output r5 c3 o3 used=8";
        "NL+HJ b333 rows budget exhausted at executor: cancelled after 184 tuples read, 150 tuples output r184 c177 o150 used=334";
        "NL+HJ b5000 893 r1224 c1190 o893 used=2117";
        "NL+HJ run 3d34e21a5008b2bd8a6a946ee568e970";
        "NL+INL (c2 NL c1) count=893 r1224 c1190 o893";
        "NL+INL b7 rows budget exhausted at executor: cancelled after 5 tuples read, 3 tuples output r5 c3 o3 used=8";
        "NL+INL b333 rows budget exhausted at executor: cancelled after 184 tuples read, 150 tuples output r184 c177 o150 used=334";
        "NL+INL b5000 893 r1224 c1190 o893 used=2117";
        "NL+INL run 3d34e21a5008b2bd8a6a946ee568e970";
        "all (c1 SM c2) count=893 r69 c485 o893";
        "all b7 rows budget exhausted at executor: cancelled after 8 tuples read, 0 tuples output r8 c0 o0 used=8";
        "all b333 rows budget exhausted at executor: cancelled after 69 tuples read, 265 tuples output r69 c444 o265 used=334";
        "all b5000 893 r69 c485 o893 used=962";
        "all run ade578292bdb92cd0b5e0e8e74a93346";
        "run_query count=893 r69 c485 o893";
      ] );
  ]

let test_golden_accounting () =
  List.iter
    (fun (name, (db, query)) ->
      Alcotest.(check (list string))
        name
        (List.assoc name golden_expected)
        (golden_lines db query))
    (golden_scenarios ())

let suite =
  [
    Alcotest.test_case "scan with filters" `Quick test_scan_and_filter;
    Alcotest.test_case "three join methods agree" `Quick
      test_three_join_methods_agree;
    Alcotest.test_case "join output schema" `Quick test_join_output_schema;
    Alcotest.test_case "null keys never match" `Quick test_null_keys_never_match;
    Alcotest.test_case "cartesian nested loop" `Quick test_cartesian_nested_loop;
    Alcotest.test_case "equi methods require keys" `Quick
      test_equi_methods_require_keys;
    Alcotest.test_case "residual predicates" `Quick test_residual_predicates;
    Alcotest.test_case "nested loop rescans charged" `Quick
      test_nested_loop_rescans_charge;
    Alcotest.test_case "project and count" `Quick test_project_and_count;
    Alcotest.test_case "operator utilities" `Quick test_operator_utilities;
    Alcotest.test_case "executor: run plan" `Quick test_executor_run_plan;
    Alcotest.test_case "executor: run query" `Quick test_executor_run_query;
    Alcotest.test_case "executor: cartesian query" `Quick
      test_executor_cartesian_query;
    Alcotest.test_case "plan rendering" `Quick test_plan_rendering;
    Alcotest.test_case "golden accounting" `Quick test_golden_accounting;
  ]
