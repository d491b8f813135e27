(* The merge algebra behind partitioned ANALYZE: HLL distinct sketches,
   histogram/MCV merges and Col_stats/Analyze shard folding.

   The contract (DESIGN §12): sketch merges are exact (commutative,
   associative, idempotent, and shard-merge equals bulk-build);
   histogram/MCV merges are commutative exactly and agree with the bulk
   build within tolerance; Analyze.partitions matches bulk Analyze.table
   on row counts, null counts and bounds exactly, on distinct counts to
   sketch accuracy, and always passes its own audit. *)

let ints_of rng n lo hi =
  Array.init n (fun _ -> Rel.Value.Int (Rel.Prng.int_in rng lo hi))

let split_shards k arr =
  let shards = Array.make k [] in
  Array.iteri (fun i v -> shards.(i mod k) <- v :: shards.(i mod k)) arr;
  Array.to_list (Array.map (fun l -> Array.of_list (List.rev l)) shards)

(* --- HLL --- *)

let test_hll_accuracy () =
  (* Deterministic: distinct counts across three orders of magnitude must
     estimate within 5% (p=12 gives ~1.6% standard error). *)
  List.iter
    (fun n ->
      let values = Array.init n (fun i -> Rel.Value.Int (i + 1)) in
      let est = Stats.Hll.estimate (Stats.Hll.of_values values) in
      let err = Float.abs (est -. float_of_int n) /. float_of_int n in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d estimated %.0f (%.2f%% error)" n est (100. *. err))
        true (err <= 0.05))
    [ 10; 100; 1000; 20000 ]

let test_hll_ignores_nulls_and_duplicates () =
  let values =
    Array.concat
      [
        Array.init 50 (fun i -> Rel.Value.Int (i + 1));
        Array.init 50 (fun i -> Rel.Value.Int (i + 1));
        Array.make 25 Rel.Value.Null;
      ]
  in
  let est = Stats.Hll.estimate (Stats.Hll.of_values values) in
  Alcotest.(check bool)
    (Printf.sprintf "50 distinct estimated %.1f" est)
    true
    (Float.abs (est -. 50.) /. 50. <= 0.05)

let test_hll_merge_exact () =
  let rng = Rel.Prng.create 7 in
  let a = Stats.Hll.of_values (ints_of rng 500 1 300) in
  let b = Stats.Hll.of_values (ints_of rng 400 200 700) in
  let c = Stats.Hll.of_values (ints_of rng 300 1 1000) in
  let ( + ) = Stats.Hll.merge in
  Alcotest.(check bool) "commutative" true (Stats.Hll.equal (a + b) (b + a));
  Alcotest.(check bool)
    "associative" true
    (Stats.Hll.equal ((a + b) + c) (a + (b + c)));
  Alcotest.(check bool) "idempotent" true (Stats.Hll.equal (a + a) a)

let test_hll_shards_equal_bulk () =
  (* Register-wise max means sharded adds commute with bulk adds
     bit-for-bit, whatever the partitioning. *)
  let rng = Rel.Prng.create 13 in
  let values = ints_of rng 2000 1 800 in
  let bulk = Stats.Hll.of_values values in
  List.iter
    (fun k ->
      let merged =
        match List.map Stats.Hll.of_values (split_shards k values) with
        | first :: rest -> List.fold_left Stats.Hll.merge first rest
        | [] -> assert false
      in
      Alcotest.(check bool)
        (Printf.sprintf "%d shards merge to the bulk sketch" k)
        true
        (Stats.Hll.equal bulk merged))
    [ 2; 3; 7 ]

(* Estimates pinned as hex floats; never re-capture them to make a
   change pass. The rows span both estimator regimes: linear counting
   while registers are empty, the harmonic mean once all are set (p=4
   from 1,000 values, p=12 at 20,000, p=16 at 200,000), so a change to
   any value's hash, register index or rank moves some row. *)
let golden_ints n = Array.init n (fun i -> Rel.Value.Int (i + 1))

let golden_mixed n =
  Array.append
    Rel.Value.
      [|
        String ""; String (String.make 100 'y'); Float (-0.); Float 0.;
        Float Float.nan; Float Float.neg_infinity; Bool true; Null;
      |]
  @@ Array.init n (fun i ->
         match i mod 4 with
         | 0 -> Rel.Value.Float ((float_of_int i *. 0.25) -. 100.)
         | 1 -> Rel.Value.String (String.make (i mod 11) 'x' ^ string_of_int i)
         | 2 -> Rel.Value.Bool (i mod 3 = 0)
         | _ -> Rel.Value.Null)

let test_hll_goldens () =
  let open Stats.Hll in
  let sketches =
    List.concat_map
      (fun p ->
        List.map
          (fun n -> (Printf.sprintf "p=%d n=%d" p n, of_values ~p (golden_ints n)))
          [ 0; 10; 1000; 20000 ])
      [ 4; 12; 16 ]
    @ [
        ("p=16 n=200000", of_values ~p:16 (golden_ints 200_000));
        ("create p=12", create ());
        ("mixed p=4", of_values ~p:4 (golden_mixed 3000));
        ("mixed p=12", of_values (golden_mixed 3000));
        ( "merge p=12",
          merge
            (of_values (Array.sub (golden_ints 3000) 0 2000))
            (of_values (Array.sub (golden_ints 3000) 1000 2000)) );
        ( "add_values p=12",
          add_values (of_values (golden_mixed 3000)) (golden_ints 5000) );
      ]
  in
  let expected =
    [
      ("p=4 n=0", "0x0p+0");
      ("p=4 n=10", "0x1.62e42fefa39efp+3");
      ("p=4 n=1000", "0x1.fc49f4980ddb6p+9");
      ("p=4 n=20000", "0x1.c2bc0b61b5001p+13");
      ("p=12 n=0", "0x0p+0");
      ("p=12 n=10", "0x1.406429be3c812p+3");
      ("p=12 n=1000", "0x1.f7a67c9e933e1p+9");
      ("p=12 n=20000", "0x1.36fff3b77b7c5p+14");
      ("p=16 n=0", "0x0p+0");
      ("p=16 n=10", "0x1.40064029ab011p+3");
      ("p=16 n=1000", "0x1.f3cacf1cd3afcp+9");
      ("p=16 n=20000", "0x1.371802296aafbp+14");
      ("p=16 n=200000", "0x1.8a784dda9d63ep+17");
      ("create p=12", "0x0p+0");
      ("mixed p=4", "0x1.f2fb70d62be3fp+10");
      ("mixed p=12", "0x1.8354349cc9a41p+10");
      ("merge p=12", "0x1.7f284df69ac98p+11");
      ("add_values p=12", "0x1.9ad4d3707249bp+12");
    ]
  in
  Alcotest.(check (list (pair string string)))
    "estimates as %h" expected
    (List.map (fun (l, h) -> (l, Printf.sprintf "%h" (estimate h))) sketches)

(* The estimate is computed when a sketch is built, so reading it costs a
   field load at any precision; re-summing a p=16 sketch's 65,536
   registers on every read would return a fresh boxed float, 2 words per
   call. *)
let test_hll_estimate_is_read () =
  let h = Stats.Hll.of_values ~p:16 (golden_ints 1000) in
  let calls = 1000 in
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  let overhead = w1 -. w0 in
  let w2 = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (Stats.Hll.estimate h))
  done;
  let w3 = Gc.minor_words () in
  let per_call = (w3 -. w2 -. overhead) /. float_of_int calls in
  if not (per_call < 0.5) then
    Alcotest.failf "%.2f minor words per estimate call (want < 0.5)" per_call

(* --- histograms --- *)

let floats_of rng n lo hi =
  Array.init n (fun _ -> float_of_int (Rel.Prng.int_in rng lo hi))

let build_exn kind ~buckets values =
  match Stats.Histogram.build kind ~buckets values with
  | Some h -> h
  | None -> Alcotest.fail "histogram build returned None"

let test_histogram_merge_commutative () =
  let rng = Rel.Prng.create 17 in
  let a = build_exn Stats.Histogram.Equi_depth ~buckets:8 (floats_of rng 300 1 100) in
  let b = build_exn Stats.Histogram.Equi_depth ~buckets:8 (floats_of rng 200 50 200) in
  let ab = Stats.Histogram.merge a b and ba = Stats.Histogram.merge b a in
  Alcotest.(check bool)
    "merge a b = merge b a (bucket lists equal)" true
    (Stats.Histogram.buckets ab = Stats.Histogram.buckets ba)

let test_histogram_merge_shape () =
  let rng = Rel.Prng.create 19 in
  let va = floats_of rng 400 1 100 and vb = floats_of rng 300 80 250 in
  let a = build_exn Stats.Histogram.Equi_depth ~buckets:8 va in
  let b = build_exn Stats.Histogram.Equi_depth ~buckets:8 vb in
  let m = Stats.Histogram.merge a b in
  let bs = Stats.Histogram.buckets m in
  Alcotest.(check bool)
    "budget respected" true
    (List.length bs <= 8);
  Helpers.check_float "total count adds" 700. (Stats.Histogram.total_count m);
  (* Monotone, non-overlapping bounds: the property Validate audits. *)
  let rec monotone = function
    | a :: (b :: _ as rest) ->
      a.Stats.Histogram.hi <= b.Stats.Histogram.lo +. 1e-9
      && a.Stats.Histogram.lo <= a.Stats.Histogram.hi
      && monotone rest
    | [ b ] -> b.Stats.Histogram.lo <= b.Stats.Histogram.hi
    | [] -> false
  in
  Alcotest.(check bool) "bounds stay monotone" true (monotone bs)

let test_histogram_shards_close_to_bulk () =
  (* Deterministic tolerance check: range selectivities of the shard-merged
     histogram track the bulk-built one. *)
  let rng = Rel.Prng.create 23 in
  let values = floats_of rng 1200 1 400 in
  let bulk = build_exn Stats.Histogram.Equi_depth ~buckets:12 values in
  let merged =
    match
      List.map
        (fun shard -> build_exn Stats.Histogram.Equi_depth ~buckets:12 shard)
        (split_shards 4 values)
    with
    | first :: rest -> List.fold_left Stats.Histogram.merge first rest
    | [] -> assert false
  in
  List.iter
    (fun cut ->
      let s_bulk = Stats.Histogram.selectivity bulk Rel.Cmp.Le cut in
      let s_merged = Stats.Histogram.selectivity merged Rel.Cmp.Le cut in
      Alcotest.(check bool)
        (Printf.sprintf "sel(<= %.0f): bulk %.3f vs merged %.3f" cut s_bulk
           s_merged)
        true
        (Float.abs (s_bulk -. s_merged) <= 0.1))
    [ 50.; 100.; 200.; 300.; 390. ]

(* --- MCV --- *)

let test_mcv_merge () =
  (* Two shards with known frequencies: the weighted merge must recover
     the combined fractions of every value that survives the budget
     (top max(k1,k2), here 3). Shard 1: 100 rows as 60×1, 30×2, 10×3.
     Shard 2: 100 rows as 50×2, 40×3, 10×4. *)
  let shard counts =
    match
      Stats.Mcv.build ~k:4
        (Array.concat
           (List.map (fun (v, n) -> Array.make n (Rel.Value.Int v)) counts))
    with
    | Some t -> t
    | None -> Alcotest.fail "mcv build returned None"
  in
  let a = shard [ (1, 60); (2, 30); (3, 10) ] in
  let b = shard [ (2, 50); (3, 40); (4, 10) ] in
  let m = Stats.Mcv.merge (100., a) (100., b) in
  let lookup v =
    match Stats.Mcv.lookup m (Rel.Value.Int v) with
    | Some f -> f
    | None -> 0.
  in
  Helpers.check_float ~eps:1e-9 "f(1) = 60/200" 0.3 (lookup 1);
  Helpers.check_float ~eps:1e-9 "f(2) = 80/200" 0.4 (lookup 2);
  Helpers.check_float ~eps:1e-9 "f(3) = 50/200" 0.25 (lookup 3);
  Helpers.check_float ~eps:1e-9 "f(4) dropped by the top-3 budget" 0.
    (lookup 4);
  Alcotest.(check bool)
    "covered fraction within [0,1]" true
    (Stats.Mcv.covered_fraction m >= 0. && Stats.Mcv.covered_fraction m <= 1.);
  let m' = Stats.Mcv.merge (100., b) (100., a) in
  Alcotest.(check bool)
    "commutative" true
    (Stats.Mcv.entries m = Stats.Mcv.entries m')

(* --- Col_stats / Analyze --- *)

let relation_of_column name values =
  let schema =
    Rel.Schema.make [ Rel.Schema.column ~table:name ~name:"a" Rel.Value.Ty_int ]
  in
  Rel.Relation.of_tuples schema
    (List.map (fun v -> Rel.Tuple.of_list [ v ]) (Array.to_list values))

let test_partitions_match_bulk () =
  let rng = Rel.Prng.create 29 in
  let values = ints_of rng 3000 1 500 in
  let rel = relation_of_column "t" values in
  let bulk =
    Catalog.Analyze.table ~histogram:Stats.Histogram.Equi_depth ~mcv:5
      ~name:"t" rel
  in
  List.iter
    (fun k ->
      let shards =
        List.map (relation_of_column "t") (split_shards k values)
      in
      let merged =
        Catalog.Analyze.partitions ~histogram:Stats.Histogram.Equi_depth
          ~mcv:5 ~name:"t" shards
      in
      Alcotest.(check int)
        (Printf.sprintf "%d shards: row count exact" k)
        bulk.Catalog.Table.row_count merged.Catalog.Table.row_count;
      let sb = Catalog.Table.col_stats_exn bulk "a" in
      let sm = Catalog.Table.col_stats_exn merged "a" in
      Alcotest.(check int)
        "null count exact" sb.Stats.Col_stats.nulls sm.Stats.Col_stats.nulls;
      Alcotest.(check bool)
        "bounds exact" true
        (sb.Stats.Col_stats.min_value = sm.Stats.Col_stats.min_value
        && sb.Stats.Col_stats.max_value = sm.Stats.Col_stats.max_value);
      let db = float_of_int sb.Stats.Col_stats.distinct in
      let dm = float_of_int sm.Stats.Col_stats.distinct in
      Alcotest.(check bool)
        (Printf.sprintf "distinct within 10%% (bulk %.0f, merged %.0f)" db dm)
        true
        (Float.abs (db -. dm) /. db <= 0.1);
      Alcotest.(check (list Alcotest.string))
        "merged table passes its own audit" []
        (List.map Catalog.Validate.issue_to_string
           (Catalog.Validate.check_table merged)))
    [ 2; 4; 8 ]

let test_partitions_single_shard_is_bulk () =
  let rng = Rel.Prng.create 31 in
  let values = ints_of rng 500 1 100 in
  let rel = relation_of_column "t" values in
  let bulk =
    Catalog.Analyze.table ~histogram:Stats.Histogram.Equi_depth ~mcv:5
      ~name:"t" rel
  in
  let one =
    Catalog.Analyze.partitions ~histogram:Stats.Histogram.Equi_depth ~mcv:5
      ~name:"t" [ rel ]
  in
  Alcotest.(check int)
    "row count" bulk.Catalog.Table.row_count one.Catalog.Table.row_count;
  let sb = Catalog.Table.col_stats_exn bulk "a" in
  let so = Catalog.Table.col_stats_exn one "a" in
  Alcotest.(check int)
    "distinct identical" sb.Stats.Col_stats.distinct so.Stats.Col_stats.distinct

let test_partitions_rejects_mismatch () =
  Alcotest.check_raises "empty shard list"
    (Invalid_argument "Analyze.partitions: no shards") (fun () ->
      ignore (Catalog.Analyze.partitions ~name:"t" []))

let test_merge_tables_symmetric_schema_check () =
  (* Regression: the schema check must reject a drift in either
     direction. Pre-fix, a column present only in the second shard was
     silently dropped — the merge "succeeded" with data loss — while the
     mirrored drift raised. *)
  let table_with name cols =
    let rng = Rel.Prng.create 41 in
    let schema =
      Rel.Schema.make
        (List.map
           (fun c -> Rel.Schema.column ~table:name ~name:c Rel.Value.Ty_int)
           cols)
    in
    let rel =
      Rel.Relation.of_tuples schema
        (List.init 20 (fun _ ->
             Rel.Tuple.of_list
               (List.map
                  (fun _ -> Rel.Value.Int (Rel.Prng.int_in rng 1 9))
                  cols)))
    in
    Catalog.Analyze.table ~name rel
  in
  let ab = table_with "t" [ "a"; "b" ] and a = table_with "t" [ "a" ] in
  let raises x y =
    match Catalog.Analyze.merge_tables x y with
    | exception Invalid_argument msg ->
      Alcotest.(check bool) "names the drifting column" true
        (Helpers.contains msg "t.b")
    | (_ : Catalog.Table.t) ->
      Alcotest.fail "schema drift merged without complaint"
  in
  raises ab a;
  raises a ab;
  (* Matching schemas still merge. *)
  Alcotest.(check int) "matching shards merge" 40
    (Catalog.Analyze.merge_tables ab (table_with "t" [ "a"; "b" ]))
      .Catalog.Table.row_count

(* --- degree sequences --- *)

let degree_of_values values = Stats.Degree.of_values values

let test_degree_merge_complete_exact () =
  (* Low-cardinality shards (every value tracked): the merge is exact on
     every statistic, including the value-keyed top-k. *)
  let rng = Rel.Prng.create 37 in
  let values = ints_of rng 400 1 20 in
  let bulk = degree_of_values values in
  List.iter
    (fun k ->
      let merged =
        match List.map degree_of_values (split_shards k values) with
        | first :: rest -> List.fold_left Stats.Degree.merge first rest
        | [] -> assert false
      in
      Alcotest.(check bool)
        (Printf.sprintf "%d shards stay complete" k)
        true
        (Stats.Degree.complete merged);
      Helpers.check_float "l1 exact" (Stats.Degree.l1 bulk)
        (Stats.Degree.l1 merged);
      Helpers.check_float "l2² exact" (Stats.Degree.l2_sq bulk)
        (Stats.Degree.l2_sq merged);
      Helpers.check_float "linf exact" (Stats.Degree.linf bulk)
        (Stats.Degree.linf merged);
      Alcotest.(check bool) "tracked entries identical" true
        (Stats.Degree.tracked bulk = Stats.Degree.tracked merged))
    [ 2; 4; 8 ]

let test_degree_merge_incomplete_bounds () =
  (* High-cardinality shards: L1 stays exact; L∞/L2²/top-k become lower
     bounds of the bulk statistic that still dominate each shard. *)
  let rng = Rel.Prng.create 43 in
  let values = ints_of rng 2000 1 400 in
  let bulk = degree_of_values values in
  let shard_stats = List.map degree_of_values (split_shards 4 values) in
  let merged =
    match shard_stats with
    | first :: rest -> List.fold_left Stats.Degree.merge first rest
    | [] -> assert false
  in
  Helpers.check_float "l1 exact" (Stats.Degree.l1 bulk) (Stats.Degree.l1 merged);
  Alcotest.(check bool) "linf: shard ≤ merged ≤ bulk" true
    (List.for_all
       (fun s -> Stats.Degree.linf s <= Stats.Degree.linf merged)
       shard_stats
    && Stats.Degree.linf merged <= Stats.Degree.linf bulk);
  Alcotest.(check bool) "l2²: shard ≤ merged ≤ bulk" true
    (List.for_all
       (fun s -> Stats.Degree.l2_sq s <= Stats.Degree.l2_sq merged)
       shard_stats
    && Stats.Degree.l2_sq merged <= Stats.Degree.l2_sq bulk);
  let mt = Stats.Degree.top_degrees merged
  and bt = Stats.Degree.top_degrees bulk in
  Alcotest.(check bool) "top-k: merged[i] ≤ bulk[i]" true
    (Array.for_all
       (fun i -> mt.(i) <= bt.(i))
       (Array.init (min (Array.length mt) (Array.length bt)) Fun.id))

(* --- properties --- *)

let gen_shard_spec =
  QCheck2.Gen.(
    let* seed = int_range 0 10000 in
    let* n = int_range 20 800 in
    let* domain = int_range 2 300 in
    let* shards = int_range 2 6 in
    return (seed, n, domain, shards))

let print_shard_spec (seed, n, domain, shards) =
  Printf.sprintf "seed=%d n=%d domain=%d shards=%d" seed n domain shards

let prop_hll_merge_algebra =
  QCheck2.Test.make ~count:100 ~name:"HLL merge commutative + associative"
    ~print:print_shard_spec gen_shard_spec (fun (seed, n, domain, _) ->
      let rng = Rel.Prng.create seed in
      let a = Stats.Hll.of_values (ints_of rng n 1 domain) in
      let b = Stats.Hll.of_values (ints_of rng n 1 domain) in
      let c = Stats.Hll.of_values (ints_of rng n 1 domain) in
      Stats.Hll.equal (Stats.Hll.merge a b) (Stats.Hll.merge b a)
      && Stats.Hll.equal
           (Stats.Hll.merge (Stats.Hll.merge a b) c)
           (Stats.Hll.merge a (Stats.Hll.merge b c)))

let prop_partitions_close_to_bulk =
  QCheck2.Test.make ~count:60
    ~name:"Analyze.partitions ≈ bulk table (rows/nulls/bounds exact, d close)"
    ~print:print_shard_spec gen_shard_spec (fun (seed, n, domain, shards) ->
      let rng = Rel.Prng.create seed in
      let values = ints_of rng n 1 domain in
      let bulk =
        Catalog.Analyze.table ~histogram:Stats.Histogram.Equi_depth ~mcv:5
          ~name:"t" (relation_of_column "t" values)
      in
      let merged =
        Catalog.Analyze.partitions ~histogram:Stats.Histogram.Equi_depth
          ~mcv:5 ~name:"t"
          (List.map (relation_of_column "t") (split_shards shards values))
      in
      let sb = Catalog.Table.col_stats_exn bulk "a" in
      let sm = Catalog.Table.col_stats_exn merged "a" in
      bulk.Catalog.Table.row_count = merged.Catalog.Table.row_count
      && sb.Stats.Col_stats.nulls = sm.Stats.Col_stats.nulls
      && sb.Stats.Col_stats.min_value = sm.Stats.Col_stats.min_value
      && sb.Stats.Col_stats.max_value = sm.Stats.Col_stats.max_value
      && Float.abs
           (float_of_int sb.Stats.Col_stats.distinct
           -. float_of_int sm.Stats.Col_stats.distinct)
         /. float_of_int (max 1 sb.Stats.Col_stats.distinct)
         <= 0.15
      && Catalog.Validate.check_table merged = [])

(* The tolerance contract of Stats.Degree.merge (degree.mli "Merge
   tolerance"), both regimes: in the complete regime (domain ≤ k) the
   shard-merged statistic equals the bulk build exactly, values included;
   past capacity, L1 stays exact and L∞/L2²/top-k are lower bounds of the
   bulk that dominate every shard. *)
let prop_degree_merge_matches_bulk =
  QCheck2.Test.make ~count:100
    ~name:"Degree shard merge = bulk (complete) / bounded (truncated)"
    ~print:print_shard_spec gen_shard_spec (fun (seed, n, domain, shards) ->
      let rng = Rel.Prng.create seed in
      let values = ints_of rng n 1 domain in
      let bulk = Stats.Degree.of_values values in
      let shard_stats =
        List.map Stats.Degree.of_values (split_shards shards values)
      in
      let merged =
        match shard_stats with
        | first :: rest -> List.fold_left Stats.Degree.merge first rest
        | [] -> assert false
      in
      let l1_exact = Stats.Degree.l1 merged = Stats.Degree.l1 bulk in
      let dominated =
        List.for_all
          (fun s ->
            Stats.Degree.linf s <= Stats.Degree.linf merged
            && Stats.Degree.l2_sq s <= Stats.Degree.l2_sq merged)
          shard_stats
      in
      let bounded =
        Stats.Degree.linf merged <= Stats.Degree.linf bulk
        && Stats.Degree.l2_sq merged <= Stats.Degree.l2_sq bulk +. 1e-6
        &&
        let mt = Stats.Degree.top_degrees merged
        and bt = Stats.Degree.top_degrees bulk in
        Array.length mt <= Array.length bt
        && Array.for_all
             (fun i -> mt.(i) <= bt.(i))
             (Array.init (Array.length mt) Fun.id)
      in
      let exact_when_complete =
        (not (Stats.Degree.complete bulk))
        || (Stats.Degree.complete merged
           && Stats.Degree.l2_sq merged = Stats.Degree.l2_sq bulk
           && Stats.Degree.linf merged = Stats.Degree.linf bulk
           && Stats.Degree.tracked merged = Stats.Degree.tracked bulk)
      in
      (* Whatever the regime, the merged statistic must pass the catalog
         audit — Repair mode must never drop a legitimately merged
         degree sequence. *)
      let audit_clean =
        Catalog.Validate.check_table
          (Catalog.Analyze.partitions ~name:"t"
             (List.map (relation_of_column "t") (split_shards shards values)))
        = []
      in
      l1_exact && dominated && bounded && exact_when_complete && audit_clean)

let suite =
  [
    Alcotest.test_case "hll: accuracy within 5%" `Quick test_hll_accuracy;
    Alcotest.test_case "hll: nulls and duplicates ignored" `Quick
      test_hll_ignores_nulls_and_duplicates;
    Alcotest.test_case "hll: merge exact algebra" `Quick test_hll_merge_exact;
    Alcotest.test_case "hll: shard merge = bulk build" `Quick
      test_hll_shards_equal_bulk;
    Alcotest.test_case "hll: estimate goldens" `Quick test_hll_goldens;
    Alcotest.test_case "hll: estimate is read, not recomputed" `Quick
      test_hll_estimate_is_read;
    Alcotest.test_case "histogram: merge commutative" `Quick
      test_histogram_merge_commutative;
    Alcotest.test_case "histogram: merge shape and budget" `Quick
      test_histogram_merge_shape;
    Alcotest.test_case "histogram: shard merge tracks bulk" `Quick
      test_histogram_shards_close_to_bulk;
    Alcotest.test_case "mcv: weighted merge recovers fractions" `Quick
      test_mcv_merge;
    Alcotest.test_case "analyze: partitions match bulk" `Quick
      test_partitions_match_bulk;
    Alcotest.test_case "analyze: single shard equals bulk" `Quick
      test_partitions_single_shard_is_bulk;
    Alcotest.test_case "analyze: partitions rejects empty input" `Quick
      test_partitions_rejects_mismatch;
    Alcotest.test_case "analyze: merge_tables schema check is symmetric"
      `Quick test_merge_tables_symmetric_schema_check;
    Alcotest.test_case "degree: complete shard merge exact" `Quick
      test_degree_merge_complete_exact;
    Alcotest.test_case "degree: truncated shard merge bounded" `Quick
      test_degree_merge_incomplete_bounds;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_hll_merge_algebra; prop_partitions_close_to_bulk;
        prop_degree_merge_matches_bulk;
      ]
