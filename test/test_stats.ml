(* Unit tests for the statistics substrate: urn model, histograms,
   column stats, local selectivity estimation. *)

let check_float = Helpers.check_float

(* --- Urn --- *)

let test_urn_edges () =
  check_float "no urns" 0. (Stats.Urn.expected_distinct ~urns:0. ~balls:10.);
  check_float "no balls" 0. (Stats.Urn.expected_distinct ~urns:10. ~balls:0.);
  check_float "one urn" 1. (Stats.Urn.expected_distinct ~urns:1. ~balls:5.);
  check_float ~eps:1e-6 "one ball" 1.
    (Stats.Urn.expected_distinct ~urns:1000. ~balls:1.)

let test_urn_exact_small () =
  (* n=2, k=2: 2*(1 - (1/2)^2) = 1.5 *)
  check_float ~eps:1e-12 "2 urns 2 balls" 1.5
    (Stats.Urn.expected_distinct ~urns:2. ~balls:2.);
  (* n=3, k=2: 3*(1 - (2/3)^2) = 5/3 *)
  check_float ~eps:1e-12 "3 urns 2 balls" (5. /. 3.)
    (Stats.Urn.expected_distinct ~urns:3. ~balls:2.)

let test_urn_bounds () =
  List.iter
    (fun (n, k) ->
      let e = Stats.Urn.expected_distinct ~urns:n ~balls:k in
      Alcotest.(check bool)
        (Printf.sprintf "0 <= E <= min for n=%g k=%g" n k)
        true
        (e >= 0. && e <= Float.min n k +. 1e-9))
    [ (1., 1.); (10., 5.); (5., 10.); (1e6, 3.); (3., 1e6); (1e5, 1e5) ]

let test_urn_monotone () =
  let prev = ref 0. in
  List.iter
    (fun k ->
      let e = Stats.Urn.expected_distinct ~urns:1000. ~balls:k in
      Alcotest.(check bool) "monotone in balls" true (e >= !prev);
      prev := e)
    [ 1.; 10.; 100.; 1000.; 10000. ]

let test_urn_no_underflow () =
  (* Large k must not underflow to a NaN or negative value. *)
  let e = Stats.Urn.expected_distinct ~urns:10000. ~balls:1e9 in
  Alcotest.(check bool) "huge k saturates" true
    (Float.abs (e -. 10000.) < 1e-6);
  let e2 = Stats.Urn.expected_distinct ~urns:1e9 ~balls:2. in
  Alcotest.(check bool) "tiny fill stays ~k" true (Float.abs (e2 -. 2.) < 1e-6)

let test_urn_survival () =
  check_float ~eps:1e-9 "survival fraction" 0.75
    (Stats.Urn.survival_fraction ~urns:2. ~balls:2.)

(* --- Histogram --- *)

let floats_of_ints l = Array.of_list (List.map float_of_int l)

let test_histogram_build () =
  let values = floats_of_ints [ 1; 2; 2; 3; 4; 5; 6; 7; 8; 100 ] in
  let h = Option.get (Stats.Histogram.build Stats.Histogram.Equi_depth ~buckets:5 values) in
  check_float "total count" 10. (Stats.Histogram.total_count h);
  let buckets = Stats.Histogram.buckets h in
  Alcotest.(check bool) "has buckets" true (List.length buckets >= 2);
  List.iter
    (fun b ->
      Alcotest.(check bool) "bucket bounds ordered" true
        (b.Stats.Histogram.lo <= b.Stats.Histogram.hi);
      Alcotest.(check bool) "bucket distinct <= count" true
        (b.Stats.Histogram.distinct <= b.Stats.Histogram.count))
    buckets

let test_histogram_empty_and_errors () =
  Alcotest.(check bool) "empty input" true
    (Stats.Histogram.build Stats.Histogram.Equi_width ~buckets:4 [||] = None);
  Alcotest.check_raises "zero buckets"
    (Invalid_argument "Histogram.build: buckets < 1") (fun () ->
      ignore (Stats.Histogram.build Stats.Histogram.Equi_width ~buckets:0 [| 1. |]))

let exact_selectivity values op c =
  let n = Array.length values in
  let hits = Array.fold_left (fun acc v -> if Rel.Cmp.holds op (Float.compare v c) then acc + 1 else acc) 0 values in
  float_of_int hits /. float_of_int n

let test_histogram_selectivity_uniform () =
  (* On uniform data with many buckets, the estimate should be close to
     exact for range predicates. *)
  let values = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  List.iter
    (fun kind ->
      let h = Option.get (Stats.Histogram.build kind ~buckets:20 values) in
      List.iter
        (fun (op, c) ->
          let est = Stats.Histogram.selectivity h op c in
          let exact = exact_selectivity values op c in
          Alcotest.(check bool)
            (Printf.sprintf "sel %s %g close" (Rel.Cmp.to_string op) c)
            true
            (Float.abs (est -. exact) < 0.03))
        Rel.Cmp.[ (Lt, 100.); (Le, 500.); (Gt, 900.); (Ge, 1.); (Lt, 1500.); (Gt, 2000.) ])
    Stats.Histogram.[ Equi_width; Equi_depth ]

let test_histogram_selectivity_skewed () =
  (* Heavy value 7 occupies 60% of rows; equi-depth should see it. *)
  let values =
    Array.concat
      [ Array.make 600 7.; Array.init 400 (fun i -> float_of_int (i + 10)) ]
  in
  let h = Option.get (Stats.Histogram.build Stats.Histogram.Equi_depth ~buckets:10 values) in
  let est = Stats.Histogram.selectivity h Rel.Cmp.Eq 7. in
  Alcotest.(check bool) "heavy hitter found" true (est > 0.3);
  let est_absent = Stats.Histogram.selectivity h Rel.Cmp.Eq 8. in
  Alcotest.(check bool) "absent value small" true (est_absent < 0.05)

let test_histogram_clamped () =
  let values = floats_of_ints [ 1; 2; 3 ] in
  let h = Option.get (Stats.Histogram.build Stats.Histogram.Equi_width ~buckets:2 values) in
  List.iter
    (fun (op, c) ->
      let s = Stats.Histogram.selectivity h op c in
      Alcotest.(check bool) "in [0,1]" true (s >= 0. && s <= 1.))
    Rel.Cmp.[ (Lt, -5.); (Gt, -5.); (Le, 100.); (Ge, 100.); (Eq, 2.); (Ne, 2.) ]

(* --- Col_stats --- *)

let test_col_stats_of_values () =
  let values =
    [| Rel.Value.Int 5; Rel.Value.Int 5; Rel.Value.Null; Rel.Value.Int 9 |]
  in
  let s = Stats.Col_stats.of_values values in
  Alcotest.(check int) "distinct" 2 s.Stats.Col_stats.distinct;
  Alcotest.(check int) "nulls" 1 s.Stats.Col_stats.nulls;
  Alcotest.(check bool) "min" true
    (s.Stats.Col_stats.min_value = Some (Rel.Value.Int 5));
  Alcotest.(check bool) "max" true
    (s.Stats.Col_stats.max_value = Some (Rel.Value.Int 9));
  Alcotest.(check bool) "no histogram unless asked" true
    (s.Stats.Col_stats.histogram = None)

let test_col_stats_histogram_request () =
  let values = Array.init 100 (fun i -> Rel.Value.Int i) in
  let s =
    Stats.Col_stats.of_values ~histogram:Stats.Histogram.Equi_depth
      ~histogram_buckets:8 values
  in
  Alcotest.(check bool) "histogram built" true
    (s.Stats.Col_stats.histogram <> None);
  let strings = Array.make 5 (Rel.Value.String "x") in
  let s2 = Stats.Col_stats.of_values ~histogram:Stats.Histogram.Equi_depth strings in
  Alcotest.(check bool) "no numeric histogram on strings" true
    (s2.Stats.Col_stats.histogram = None)

(* --- Selectivity_est --- *)

let bounded_stats ~d ~lo ~hi =
  Stats.Col_stats.with_bounds ~distinct:d ~lo:(Rel.Value.Int lo)
    ~hi:(Rel.Value.Int hi)

let test_sel_equality () =
  let s = bounded_stats ~d:100 ~lo:1 ~hi:100 in
  check_float "eq = 1/d" 0.01
    (Stats.Selectivity_est.comparison s Rel.Cmp.Eq (Rel.Value.Int 50));
  check_float "eq outside bounds" 0.
    (Stats.Selectivity_est.comparison s Rel.Cmp.Eq (Rel.Value.Int 500));
  check_float "ne complements" 0.99
    (Stats.Selectivity_est.comparison s Rel.Cmp.Ne (Rel.Value.Int 50))

let test_sel_range_int_interpolation () =
  (* The Section 8 case: s < 100 over keys 1..1000 is 99/1000. *)
  let s = bounded_stats ~d:1000 ~lo:1 ~hi:1000 in
  check_float "s < 100" 0.099
    (Stats.Selectivity_est.comparison s Rel.Cmp.Lt (Rel.Value.Int 100));
  check_float "s <= 100" 0.1
    (Stats.Selectivity_est.comparison s Rel.Cmp.Le (Rel.Value.Int 100));
  check_float "s > 900" 0.1
    (Stats.Selectivity_est.comparison s Rel.Cmp.Gt (Rel.Value.Int 900));
  check_float "s >= 1" 1.
    (Stats.Selectivity_est.comparison s Rel.Cmp.Ge (Rel.Value.Int 1));
  check_float "clamped below" 0.
    (Stats.Selectivity_est.comparison s Rel.Cmp.Lt (Rel.Value.Int (-5)));
  check_float "clamped above" 1.
    (Stats.Selectivity_est.comparison s Rel.Cmp.Le (Rel.Value.Int 99999))

let test_sel_defaults () =
  let s = Stats.Col_stats.trivial ~distinct:0 in
  check_float "default equality" Stats.Selectivity_est.default_eq
    (Stats.Selectivity_est.comparison s Rel.Cmp.Eq (Rel.Value.Int 1));
  check_float "default range" Stats.Selectivity_est.default_range
    (Stats.Selectivity_est.comparison s Rel.Cmp.Lt (Rel.Value.Int 1));
  check_float "null constant" 0.
    (Stats.Selectivity_est.comparison s Rel.Cmp.Eq Rel.Value.Null)

let test_sel_range_pair () =
  let s = bounded_stats ~d:1000 ~lo:1 ~hi:1000 in
  (* 100 < x <= 200: mass(<=200) - mass(<=100) = 0.2 - 0.1 *)
  check_float ~eps:1e-9 "interval" 0.1
    (Stats.Selectivity_est.range_pair s
       ~lower:(Some (Rel.Cmp.Gt, Rel.Value.Int 100))
       ~upper:(Some (Rel.Cmp.Le, Rel.Value.Int 200)));
  check_float "unbounded" 1.
    (Stats.Selectivity_est.range_pair s ~lower:None ~upper:None);
  check_float "empty interval clamps to 0" 0.
    (Stats.Selectivity_est.range_pair s
       ~lower:(Some (Rel.Cmp.Ge, Rel.Value.Int 900))
       ~upper:(Some (Rel.Cmp.Le, Rel.Value.Int 100)))

let test_sel_non_integer_constant () =
  (* Regression: over an integer domain a fractional constant occupies no
     discrete slot, so < and <= coincide: x < 2.5 ≡ x <= 2.5 ≡ x ∈ {1, 2}.
     The pre-fix interpolation returned (x − lo)/width for the strict
     side, undercounting the mass by half a value. *)
  let s = bounded_stats ~d:10 ~lo:1 ~hi:10 in
  check_float ~eps:1e-9 "x < 2.5 = 2/10" 0.2
    (Stats.Selectivity_est.comparison s Rel.Cmp.Lt (Rel.Value.Float 2.5));
  check_float ~eps:1e-9 "x <= 2.5 = 2/10" 0.2
    (Stats.Selectivity_est.comparison s Rel.Cmp.Le (Rel.Value.Float 2.5));
  check_float ~eps:1e-9 "x > 2.5 = 8/10" 0.8
    (Stats.Selectivity_est.comparison s Rel.Cmp.Gt (Rel.Value.Float 2.5));
  check_float ~eps:1e-9 "x >= 2.5 = 8/10" 0.8
    (Stats.Selectivity_est.comparison s Rel.Cmp.Ge (Rel.Value.Float 2.5));
  (* Integer constants keep the off-by-one-aware discrete split. *)
  check_float ~eps:1e-9 "x < 3 = 2/10" 0.2
    (Stats.Selectivity_est.comparison s Rel.Cmp.Lt (Rel.Value.Int 3));
  check_float ~eps:1e-9 "x <= 3 = 3/10" 0.3
    (Stats.Selectivity_est.comparison s Rel.Cmp.Le (Rel.Value.Int 3))

let test_cdf_eval_guard () =
  (* cdf_eval answers cumulative (Lt/Le) queries only; anything else is a
     caller bug and must be refused loudly, not silently answered with
     the at-or-below mass. *)
  let s = bounded_stats ~d:10 ~lo:1 ~hi:10 in
  (match Stats.Selectivity_est.cdf_eval s Rel.Cmp.Lt 3. with
  | Some v -> check_float ~eps:1e-9 "F_lt(3) = 2/10" 0.2 v
  | None -> Alcotest.fail "cdf_eval returned None on bounded stats");
  List.iter
    (fun op ->
      Alcotest.(check bool)
        (Printf.sprintf "cdf_eval refuses %s" (Rel.Cmp.to_string op))
        true
        (match Stats.Selectivity_est.cdf_eval s op 3. with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [ Rel.Cmp.Eq; Rel.Cmp.Ne; Rel.Cmp.Gt; Rel.Cmp.Ge ]

(* --- Selectivity_est provenance ---

   Every estimate returns the statistic of the branch that computed it.
   Each case pairs a full set of statistics with a record carrying only
   the statistic its label names: that record alone must reproduce the
   value (and the label), so the label cannot name a statistic the value
   did not come from. *)

let source =
  let pp ppf s =
    Format.pp_print_string ppf (Stats.Selectivity_est.source_name s)
  in
  Alcotest.testable pp ( = )

let only ?(distinct = 0) ?bounds ?histogram ?mcv () =
  { (Stats.Col_stats.trivial ~distinct) with
    Stats.Col_stats.min_value = Option.map fst bounds;
    max_value = Option.map snd bounds;
    histogram;
    mcv }

let test_sel_sources () =
  let int_ i = Rel.Value.Int i in
  (* 60% ones, 30% twos, ten other values: MCV k=2 tracks 1 and 2. *)
  let skewed =
    Array.init 1000 (fun i ->
        if i < 600 then int_ 1
        else if i < 900 then int_ 2
        else int_ (3 + (i mod 10)))
  in
  let full =
    Stats.Col_stats.of_values ~histogram:Stats.Histogram.Equi_depth ~mcv:2
      skewed
  in
  let histogram = full.Stats.Col_stats.histogram
  and mcv = full.Stats.Col_stats.mcv
  and distinct = full.Stats.Col_stats.distinct in
  let keys = bounded_stats ~d:1000 ~lo:1 ~hi:1000 in
  let key_bounds = (int_ 1, int_ 1000) in
  let cases =
    [
      ("tracked value", full, Rel.Cmp.Eq, int_ 1, Stats.Selectivity_est.Src_mcv,
       only ?mcv ());
      ("untracked value", full, Rel.Cmp.Eq, int_ 7,
       Stats.Selectivity_est.Src_mcv_remainder, only ~distinct ?mcv ());
      ("<> keeps its equality's statistic", full, Rel.Cmp.Ne, int_ 1,
       Stats.Selectivity_est.Src_mcv, only ?mcv ());
      ("range over a histogram", full, Rel.Cmp.Le, int_ 2,
       Stats.Selectivity_est.Src_histogram, only ?histogram ());
      ("range over bounds", keys, Rel.Cmp.Lt, int_ 100,
       Stats.Selectivity_est.Src_interpolation, only ~bounds:key_bounds ());
      ("equality by 1/d", Stats.Col_stats.trivial ~distinct:50, Rel.Cmp.Eq,
       int_ 3, Stats.Selectivity_est.Src_uniform, only ~distinct:50 ());
      ("constant outside the bounds", keys, Rel.Cmp.Eq, int_ 5000,
       Stats.Selectivity_est.Src_bounds, only ~bounds:key_bounds ());
      ("equality without statistics", Stats.Col_stats.trivial ~distinct:0,
       Rel.Cmp.Eq, int_ 1, Stats.Selectivity_est.Src_default, only ());
      ("range without statistics", Stats.Col_stats.trivial ~distinct:0,
       Rel.Cmp.Lt, int_ 1, Stats.Selectivity_est.Src_default, only ());
    ]
  in
  List.iter
    (fun (name, stats, op, c, expected, alone) ->
      let s, src = Stats.Selectivity_est.comparison_with_source stats op c in
      let s', src' = Stats.Selectivity_est.comparison_with_source alone op c in
      Alcotest.check source (name ^ ": source") expected src;
      Alcotest.check source (name ^ ": alone, same source") expected src';
      Alcotest.(check (float 0.)) (name ^ ": alone, same value") s s';
      Alcotest.(check (float 0.)) (name ^ ": float wrapper") s
        (Stats.Selectivity_est.comparison stats op c))
    cases;
  (* The named statistic computes the value by itself. *)
  check_float "mcv fraction"
    (Option.get (Stats.Mcv.lookup (Option.get mcv) (int_ 1)))
    (Stats.Selectivity_est.comparison full Rel.Cmp.Eq (int_ 1));
  check_float "histogram mass"
    (Stats.Histogram.selectivity (Option.get histogram) Rel.Cmp.Le 2.)
    (Stats.Selectivity_est.comparison full Rel.Cmp.Le (int_ 2));
  (* A range pair reads one statistic on both sides, unless a side falls
     back to the default. *)
  let pair lower upper =
    Stats.Selectivity_est.range_pair_with_source keys ~lower ~upper
  in
  Alcotest.check source "interval over bounds"
    Stats.Selectivity_est.Src_interpolation
    (snd
       (pair (Some (Rel.Cmp.Gt, int_ 100)) (Some (Rel.Cmp.Le, int_ 200))));
  Alcotest.check source "a defaulted side defaults the pair"
    Stats.Selectivity_est.Src_default
    (snd
       (pair
          (Some (Rel.Cmp.Gt, Rel.Value.String "x"))
          (Some (Rel.Cmp.Le, int_ 200))));
  Alcotest.check source "one-sided pair"
    Stats.Selectivity_est.Src_histogram
    (snd
       (Stats.Selectivity_est.range_pair_with_source full ~lower:None
          ~upper:(Some (Rel.Cmp.Lt, int_ 2))))

(* A comparison join reports the statistic behind the left column's CDF
   and the right column's buckets; when the 1/3 (or band) default
   applied, both are the default. *)
let test_join_sources () =
  let pair = Alcotest.pair source source in
  let values = Array.init 100 (fun i -> Rel.Value.Int (i + 1)) in
  let hist =
    Stats.Col_stats.of_values ~histogram:Stats.Histogram.Equi_depth values
  in
  let bounds = bounded_stats ~d:100 ~lo:1 ~hi:100 in
  let none = Stats.Col_stats.trivial ~distinct:100 in
  let zero_mass =
    only ~distinct:100
      ~histogram:
        (Stats.Histogram.of_buckets Stats.Histogram.Equi_width
           [
             { Stats.Histogram.lo = 1.; hi = 100.; count = 0.; distinct = 0. };
           ])
      ()
  in
  let inverted = bounded_stats ~d:100 ~lo:100 ~hi:1 in
  let lt l r = Stats.Selectivity_est.join_comparison l Rel.Cmp.Lt r in
  let open Stats.Selectivity_est in
  Alcotest.check pair "histograms" (Src_histogram, Src_histogram)
    (snd (lt hist hist));
  Alcotest.check pair "bounds" (Src_interpolation, Src_interpolation)
    (snd (lt bounds bounds));
  Alcotest.check pair "mixed" (Src_histogram, Src_interpolation)
    (snd (lt hist bounds));
  Alcotest.check pair "band" (Src_interpolation, Src_histogram)
    (snd (join_band bounds ~eps:2. hist));
  (* The histograms alone reproduce the value. *)
  Alcotest.(check (float 0.)) "histogram alone" (fst (lt hist hist))
    (fst (lt (only ?histogram:hist.Stats.Col_stats.histogram ())
            (only ?histogram:hist.Stats.Col_stats.histogram ())));
  List.iter
    (fun (name, l, r) ->
      Alcotest.(check (float 0.)) (name ^ ": the 1/3 default") default_range
        (fst (lt l r));
      Alcotest.check pair (name ^ ": both sides default")
        (Src_default, Src_default) (snd (lt l r)))
    [
      ("left without numeric statistics", none, hist);
      ("right without numeric statistics", hist, none);
      ("right histogram of zero mass", hist, zero_mass);
      ("right bounds inverted", hist, inverted);
    ];
  Alcotest.(check (float 0.)) "band default" default_eq
    (fst (join_band none ~eps:2. hist));
  Alcotest.check pair "band default: both sides" (Src_default, Src_default)
    (snd (join_band none ~eps:2. hist))

(* --- Degree --- *)

let test_degree_of_values () =
  let values =
    Array.concat
      [
        Array.make 4 (Rel.Value.Int 1);
        Array.make 2 (Rel.Value.Int 2);
        [| Rel.Value.Int 3; Rel.Value.Null |];
      ]
  in
  let d = Stats.Degree.of_values values in
  check_float "l1 = non-null rows" 7. (Stats.Degree.l1 d);
  check_float "l2² = 16+4+1" 21. (Stats.Degree.l2_sq d);
  check_float "l2 = √(l2²)" (Float.sqrt 21.) (Stats.Degree.l2 d);
  check_float "linf = heaviest degree" 4. (Stats.Degree.linf d);
  Alcotest.(check bool) "complete under capacity" true (Stats.Degree.complete d);
  Alcotest.(check (array (float 0.)))
    "top-k descending" [| 4.; 2.; 1. |]
    (Stats.Degree.top_degrees d)

let test_degree_truncation () =
  (* More distinct values than the tracked capacity: norms stay exact
     (computed before truncation), the top-k keeps the heaviest, and the
     completeness flag drops. *)
  let counts = List.init 40 (fun i -> (Rel.Value.Int i, i + 1)) in
  let d = Stats.Degree.of_counts counts in
  Alcotest.(check bool) "not complete past capacity" false
    (Stats.Degree.complete d);
  Alcotest.(check int) "top-k capped at default k"
    Stats.Degree.default_k
    (Array.length (Stats.Degree.top_degrees d));
  check_float "l1 exact despite truncation" 820. (Stats.Degree.l1 d);
  check_float "linf exact despite truncation" 40. (Stats.Degree.linf d);
  check_float "heaviest entry leads" 40. (Stats.Degree.top_degrees d).(0)

let test_degree_join_bound () =
  (* a: degrees 3,2; b: degrees 2,1 — both complete, so the bound is
     exactly the pairwise product of the sorted sequences 3·2 + 2·1. *)
  let counts l = List.map (fun (v, c) -> (Rel.Value.Int v, c)) l in
  let a = Stats.Degree.of_counts (counts [ (1, 3); (2, 2) ]) in
  let b = Stats.Degree.of_counts (counts [ (1, 2); (2, 1) ]) in
  check_float "complete: pairwise product" 8. (Stats.Degree.join_bound a b);
  check_float "symmetric" 8. (Stats.Degree.join_bound b a);
  (* Truncated to k=1 the untracked tail is capped, never dropped: the
     bound must still dominate the maximal coupling. *)
  let a1 = Stats.Degree.of_counts ~k:1 (counts [ (1, 3); (2, 2) ]) in
  let b1 = Stats.Degree.of_counts ~k:1 (counts [ (1, 2); (2, 1) ]) in
  Alcotest.(check bool) "truncated bound dominates the coupling" true
    (Stats.Degree.join_bound a1 b1 >= 8.);
  (* Key columns: all degrees 1, so the bound is the smaller row count. *)
  let key n =
    Stats.Degree.of_counts (List.init n (fun i -> (Rel.Value.Int i, 1)))
  in
  check_float "key join caps at the smaller side" 5.
    (Stats.Degree.join_bound (key 5) (key 9))

let test_urn_int_boundary () =
  (* The ceiling variant must stay inside native int range even at the
     extreme corner — ⌈n·(1 − (1 − 1/n)^k)⌉ can round to n + 1 in float,
     which overflows when n = max_int. *)
  let e = Stats.Urn.expected_distinct_int ~urns:max_int ~balls:max_int in
  Alcotest.(check bool) "max_int corner stays in range" true
    (e >= 0 && e <= max_int);
  Alcotest.(check int) "one ball" 1
    (Stats.Urn.expected_distinct_int ~urns:max_int ~balls:1);
  Alcotest.(check int) "one urn" 1
    (Stats.Urn.expected_distinct_int ~urns:1 ~balls:max_int);
  Alcotest.(check int) "no urns" 0
    (Stats.Urn.expected_distinct_int ~urns:0 ~balls:5);
  Alcotest.(check int) "no balls" 0
    (Stats.Urn.expected_distinct_int ~urns:5 ~balls:0);
  (* ⌈·⌉ of the float model, spot-checked: n=2, k=2 → ⌈1.5⌉ = 2. *)
  Alcotest.(check int) "ceiling of 1.5" 2
    (Stats.Urn.expected_distinct_int ~urns:2 ~balls:2)

let test_equi_depth_bucket_cap () =
  (* build's contract: never more buckets than requested, whatever the
     value-count / bucket-count ratio (the pre-fix ceiling targets could
     overshoot by one on awkward ratios). *)
  List.iter
    (fun (n_values, requested) ->
      let values = Array.init n_values (fun i -> float_of_int (i * i mod 37)) in
      let h =
        Option.get
          (Stats.Histogram.build Stats.Histogram.Equi_depth ~buckets:requested
             values)
      in
      let got = List.length (Stats.Histogram.buckets h) in
      Alcotest.(check bool)
        (Printf.sprintf "%d values / %d buckets: got %d" n_values requested got)
        true
        (got >= 1 && got <= requested);
      Alcotest.(check (option int)) "budget recorded" (Some requested)
        (Stats.Histogram.requested_buckets h);
      check_float "count preserved" (float_of_int n_values)
        (Stats.Histogram.total_count h))
    [ (10, 3); (7, 3); (11, 4); (5, 2); (100, 7); (3, 5); (1, 4); (64, 64) ]

let test_sel_histogram_priority () =
  (* With a histogram present, estimates come from it, not min/max. *)
  let values = Array.init 1000 (fun i -> Rel.Value.Int (i + 1)) in
  let s = Stats.Col_stats.of_values ~histogram:Stats.Histogram.Equi_depth values in
  let est = Stats.Selectivity_est.comparison s Rel.Cmp.Lt (Rel.Value.Int 100) in
  Alcotest.(check bool) "histogram-based estimate close" true
    (Float.abs (est -. 0.099) < 0.02)

let suite =
  [
    Alcotest.test_case "urn: edge cases" `Quick test_urn_edges;
    Alcotest.test_case "urn: exact small cases" `Quick test_urn_exact_small;
    Alcotest.test_case "urn: bounds" `Quick test_urn_bounds;
    Alcotest.test_case "urn: monotone in balls" `Quick test_urn_monotone;
    Alcotest.test_case "urn: no under/overflow" `Quick test_urn_no_underflow;
    Alcotest.test_case "urn: survival fraction" `Quick test_urn_survival;
    Alcotest.test_case "urn: int ceiling boundary" `Quick test_urn_int_boundary;
    Alcotest.test_case "histogram: equi-depth bucket cap" `Quick
      test_equi_depth_bucket_cap;
    Alcotest.test_case "histogram: build invariants" `Quick test_histogram_build;
    Alcotest.test_case "histogram: empty and errors" `Quick
      test_histogram_empty_and_errors;
    Alcotest.test_case "histogram: uniform accuracy" `Quick
      test_histogram_selectivity_uniform;
    Alcotest.test_case "histogram: skew detection" `Quick
      test_histogram_selectivity_skewed;
    Alcotest.test_case "histogram: clamping" `Quick test_histogram_clamped;
    Alcotest.test_case "col_stats: of_values" `Quick test_col_stats_of_values;
    Alcotest.test_case "col_stats: histogram request" `Quick
      test_col_stats_histogram_request;
    Alcotest.test_case "selectivity: equality" `Quick test_sel_equality;
    Alcotest.test_case "selectivity: integer interpolation" `Quick
      test_sel_range_int_interpolation;
    Alcotest.test_case "selectivity: defaults" `Quick test_sel_defaults;
    Alcotest.test_case "selectivity: range pairs" `Quick test_sel_range_pair;
    Alcotest.test_case "selectivity: histogram priority" `Quick
      test_sel_histogram_priority;
    Alcotest.test_case "selectivity: non-integer constant over int domain"
      `Quick test_sel_non_integer_constant;
    Alcotest.test_case "selectivity: cdf_eval refuses non-CDF ops" `Quick
      test_cdf_eval_guard;
    Alcotest.test_case "selectivity: every branch names its statistic" `Quick
      test_sel_sources;
    Alcotest.test_case "selectivity: comparison joins name both sides" `Quick
      test_join_sources;
    Alcotest.test_case "degree: of_values norms" `Quick test_degree_of_values;
    Alcotest.test_case "degree: truncation past capacity" `Quick
      test_degree_truncation;
    Alcotest.test_case "degree: join bound" `Quick test_degree_join_bound;
  ]
