(* Unit tests for estimation profiles: local effects (Section 5) and
   single-table j-equivalent columns (Section 6). *)

let check_float = Helpers.check_float
let int_ n = Rel.Value.Int n
let c t col = Query.Cref.v t col

(* One table r: 1000 rows, join column a (d=100, domain 1..100) and
   predicate column p (d=50, domain 1..50); second table u joins on a. *)
let two_col_db () =
  let db = Catalog.Db.create () in
  let schema name cols =
    Rel.Schema.make
      (List.map
         (fun cname -> Rel.Schema.column ~table:name ~name:cname Rel.Value.Ty_int)
         cols)
  in
  Catalog.Db.add db
    (Catalog.Table.stats_only ~name:"r" ~schema:(schema "r" [ "a"; "p" ])
       ~row_count:1000
       ~column_stats:
         [
           ( "a",
             Stats.Col_stats.with_bounds ~distinct:100 ~lo:(int_ 1)
               ~hi:(int_ 100) );
           ( "p",
             Stats.Col_stats.with_bounds ~distinct:50 ~lo:(int_ 1) ~hi:(int_ 50)
           );
         ]);
  Catalog.Db.add db
    (Catalog.Table.stats_only ~name:"u" ~schema:(schema "u" [ "a" ])
       ~row_count:500
       ~column_stats:
         [
           ( "a",
             Stats.Col_stats.with_bounds ~distinct:100 ~lo:(int_ 1)
               ~hi:(int_ 100) );
         ]);
  db

let join_query preds =
  Query.make ~tables:[ "r"; "u" ]
    (Query.Predicate.col_eq (c "r" "a") (c "u" "a") :: preds)

let test_no_local_preds () =
  let profile = Els.prepare Els.Config.els (two_col_db ()) (join_query []) in
  let r = Els.Profile.table profile "r" in
  check_float "rows unchanged" 1000. r.Els.Profile.rows;
  check_float "sel 1" 1. r.Els.Profile.local_selectivity;
  check_float "join card unchanged" 100. (Els.Profile.join_card profile (c "r" "a"))

let test_equality_on_join_column () =
  (* a = 42: rows drop to 1000/100 = 10, d'_a = 1. *)
  let q = join_query [ Query.Predicate.cmp (c "r" "a") Rel.Cmp.Eq (int_ 42) ] in
  let profile = Els.prepare Els.Config.els (two_col_db ()) q in
  let r = Els.Profile.table profile "r" in
  check_float "rows = ‖R‖/d" 10. r.Els.Profile.rows;
  check_float "d' = 1" 1. (Els.Profile.join_card profile (c "r" "a"))

let test_range_on_join_column () =
  (* a <= 50: sel 0.5; d'_a = 100 * 0.5 = 50. *)
  let q = join_query [ Query.Predicate.cmp (c "r" "a") Rel.Cmp.Le (int_ 50) ] in
  let profile = Els.prepare Els.Config.els (two_col_db ()) q in
  let r = Els.Profile.table profile "r" in
  check_float "rows halved" 500. r.Els.Profile.rows;
  check_float "d' halved" 50. (Els.Profile.join_card profile (c "r" "a"))

let test_urn_thinning_other_column () =
  (* p = 7 on the non-join column: rows -> 20; the join column thins
     according to the urn model: 100 * (1 - (1 - 1/100)^20) ≈ 18.2. *)
  let q = join_query [ Query.Predicate.cmp (c "r" "p") Rel.Cmp.Eq (int_ 7) ] in
  let profile = Els.prepare Els.Config.els (two_col_db ()) q in
  let r = Els.Profile.table profile "r" in
  check_float "rows" 20. r.Els.Profile.rows;
  let expected = Stats.Urn.expected_distinct ~urns:100. ~balls:20. in
  check_float ~eps:1e-9 "urn-thinned join card" expected
    (Els.Profile.join_card profile (c "r" "a"))

let test_local_blind_configuration () =
  (* The standard algorithm ignores local effects in join cardinalities
     but still reduces the row count. *)
  let q = join_query [ Query.Predicate.cmp (c "r" "a") Rel.Cmp.Le (int_ 50) ] in
  let profile = Els.prepare (Els.Config.sm ~ptc:true) (two_col_db ()) q in
  let r = Els.Profile.table profile "r" in
  check_float "rows still reduced" 500. r.Els.Profile.rows;
  check_float "join card stays base" 100.
    (Els.Profile.join_card profile (c "r" "a"))

let test_contradiction_zeroes () =
  let q =
    join_query
      [
        Query.Predicate.cmp (c "r" "a") Rel.Cmp.Eq (int_ 10);
        Query.Predicate.cmp (c "r" "a") Rel.Cmp.Eq (int_ 20);
      ]
  in
  let profile = Els.prepare Els.Config.els (two_col_db ()) q in
  let r = Els.Profile.table profile "r" in
  check_float "rows 0" 0. r.Els.Profile.rows

(* Section 6 generalization: three j-equivalent columns in one table.
   d1=4, d2=10, d3=20, ‖R‖=4000: ‖R‖' = ceil(4000/(10*20)) = 20,
   rep card = ceil(4 * (1 - (3/4)^20)). *)
let test_single_table_three_columns () =
  let db = Catalog.Db.create () in
  let schema =
    Rel.Schema.make
      (List.map
         (fun n -> Rel.Schema.column ~table:"r" ~name:n Rel.Value.Ty_int)
         [ "c1"; "c2"; "c3" ])
  in
  Catalog.Db.add db
    (Catalog.Table.stats_only ~name:"r" ~schema ~row_count:4000
       ~column_stats:
         [
           ("c1", Stats.Col_stats.trivial ~distinct:4);
           ("c2", Stats.Col_stats.trivial ~distinct:10);
           ("c3", Stats.Col_stats.trivial ~distinct:20);
         ]);
  Catalog.Db.add db (Helpers.stats_table "s" 100 [ ("x", 50) ]);
  let q =
    Query.make ~tables:[ "r"; "s" ]
      [
        Query.Predicate.col_eq (c "s" "x") (c "r" "c1");
        Query.Predicate.col_eq (c "s" "x") (c "r" "c2");
        Query.Predicate.col_eq (c "s" "x") (c "r" "c3");
      ]
  in
  let profile = Els.prepare Els.Config.els db q in
  let r = Els.Profile.table profile "r" in
  check_float "rows = ceil(‖R‖ / (d2 d3))" 20. r.Els.Profile.rows;
  let expected =
    Float.ceil (Stats.Urn.expected_distinct ~urns:4. ~balls:20.)
  in
  List.iter
    (fun col ->
      check_float
        (Printf.sprintf "rep card for %s" col)
        expected
        (Els.Profile.join_card profile (c "r" col)))
    [ "c1"; "c2"; "c3" ]

(* With the Section 6 treatment off, intra-table equalities reduce rows by
   1/max(d1,d2) each (the classic Selinger handling). *)
let test_selinger_fallback () =
  let db = Helpers.section6_db () in
  let q = Helpers.section6_query () in
  let profile = Els.prepare { Els.Config.sss with Els.Config.single_table = false } db q in
  let r2 = Els.Profile.table profile "r2" in
  (* Closure adds (r2.y = r2.w); 1000 / max(10, 50) = 20. *)
  check_float "selinger rows" 20. r2.Els.Profile.rows

let test_profile_errors () =
  let db = two_col_db () in
  let profile = Els.prepare Els.Config.els db (join_query []) in
  Alcotest.check_raises "unknown table" Not_found (fun () ->
      ignore (Els.Profile.table profile "zz"))

(* Mixed-case lookups must resolve to the same table, filters and
   predicates as lowercase ones: normalization is centralized in Profile,
   so a caller holding "R" cannot silently lose scan filters or eligible
   join predicates. *)
let test_case_normalization () =
  let q = join_query [ Query.Predicate.cmp (c "r" "p") Rel.Cmp.Le (int_ 10) ] in
  let profile = Els.prepare Els.Config.els (two_col_db ()) q in
  Alcotest.(check int) "table_bit case-insensitive"
    (Els.Profile.table_bit profile "r")
    (Els.Profile.table_bit profile "R");
  Alcotest.(check int) "scan_filters survive mixed case" 1
    (List.length (Els.Profile.scan_filters profile "R"));
  Alcotest.(check (list string)) "scan_filters: R and r agree"
    (List.map Query.Predicate.to_string (Els.Profile.scan_filters profile "r"))
    (List.map Query.Predicate.to_string (Els.Profile.scan_filters profile "R"));
  let st = Els.Incremental.start profile "R" in
  Alcotest.(check (list string)) "start normalizes" [ "r" ]
    (Els.Incremental.joined profile st);
  Alcotest.(check int) "eligible survives mixed case" 1
    (List.length (Els.Incremental.eligible profile st "U"));
  let st2 = Els.Incremental.extend profile st "U" in
  Alcotest.(check int) "extend normalizes" 2
    (List.length (Els.Incremental.joined profile st2))

(* The per-table index partitions the working conjunction: every join
   predicate appears under both endpoint tables, locals under their only
   table, with roots resolved at build time. *)
let test_index_contents () =
  let q = join_query [ Query.Predicate.cmp (c "r" "p") Rel.Cmp.Le (int_ 10) ] in
  let profile = Els.prepare Els.Config.els (two_col_db ()) q in
  Alcotest.(check int) "two tables" 2 (Els.Profile.table_count profile);
  Alcotest.(check int) "two predicates" 2 (Els.Profile.pred_count profile);
  let join_info =
    Els.Profile.pred profile
      (Els.Profile.table_bit profile "r" |> fun bit ->
       profile.Els.Profile.index.Els.Profile.join_preds_by_table.(bit).(0))
  in
  (match join_info.Els.Profile.endpoints with
  | Some (a, b) ->
    Alcotest.(check bool) "endpoints are the two table bits" true
      (List.sort compare [ a; b ]
      = List.sort compare
          [
            Els.Profile.table_bit profile "r"; Els.Profile.table_bit profile "u";
          ])
  | None -> Alcotest.fail "join predicate lost its endpoints");
  Alcotest.(check bool) "root resolved to the class representative" true
    (Query.Cref.equal join_info.Els.Profile.root
       (Els.Eqclass.find profile.Els.Profile.classes (c "r" "a")))

(* Guard violations are counted per evaluation, across profile copies.
   A NaN histogram on t2.a makes the t2.a < t3.a selectivity NaN, which
   breaches its guard; under Trap the NaN passes through into the
   selectivity cache, where NaN also marks an empty slot, so every
   evaluation recomputes and recounts: building counts the catalog issue,
   each kernel compile (a [with_estimator] copy shares the guard and the
   cache) counts the selectivity, and each derivation replays the step on
   the reference tier, breaching the predicate's, the class's and the
   step size's guards. These numbers pin today's accounting. *)
let test_guard_counters_across_copies () =
  let db =
    Harness.Fault.corrupt_db ~tables:[ "t2" ] ~columns:[ "a" ]
      Harness.Fault.Nan_histogram (Harness.Fault.base_db ())
  in
  let query =
    match Sqlfront.Binder.compile_result db Harness.Fault.inequality_sql with
    | Ok query -> query
    | Error e -> Alcotest.fail (Els.Els_error.to_string e)
  in
  let config = Els.Config.with_strictness Els.Config.Trap Els.Config.els in
  let profile = Els.Profile.build config db query in
  let violations () = (Els.Profile.guard_stats profile).Els.Guard.violations in
  Alcotest.(check int) "after Profile.build" 1 (violations ());
  ignore (Els.Profile.kernel profile : Els.Kernel.t);
  Alcotest.(check int) "after kernel compile" 2 (violations ());
  let copy = Els.Profile.with_estimator Els.Estimator.m profile in
  ignore (Els.Profile.kernel copy : Els.Kernel.t);
  Alcotest.(check int) "after the copy's kernel compile" 3 (violations ());
  let derive () =
    ignore
      (Els.Incremental.derive profile (Obs.Derivation.create ())
         [ "t1"; "t2"; "t3" ])
  in
  derive ();
  Alcotest.(check int) "after one derivation" 6 (violations ());
  derive ();
  Alcotest.(check int) "after two derivations" 9 (violations ())

let suite =
  [
    Alcotest.test_case "no local predicates" `Quick test_no_local_preds;
    Alcotest.test_case "equality on join column" `Quick
      test_equality_on_join_column;
    Alcotest.test_case "range on join column" `Quick test_range_on_join_column;
    Alcotest.test_case "urn thinning of other columns" `Quick
      test_urn_thinning_other_column;
    Alcotest.test_case "local-blind configuration" `Quick
      test_local_blind_configuration;
    Alcotest.test_case "contradiction zeroes the table" `Quick
      test_contradiction_zeroes;
    Alcotest.test_case "section 6 with three columns" `Quick
      test_single_table_three_columns;
    Alcotest.test_case "selinger fallback" `Quick test_selinger_fallback;
    Alcotest.test_case "errors" `Quick test_profile_errors;
    Alcotest.test_case "case normalization" `Quick test_case_normalization;
    Alcotest.test_case "hot-path index contents" `Quick test_index_contents;
    Alcotest.test_case "guard counters across copies" `Quick
      test_guard_counters_across_copies;
  ]
