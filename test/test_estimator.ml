(* Tests for the first-class estimator seam: registry invariants, name
   resolution, cache keying under estimator swaps, the pessimistic
   bound's pieces, and — most importantly — golden bit-identity: the
   record-of-functions refactor must reproduce the pre-refactor enum
   implementation exactly, down to the last bit, on fixed fixtures.

   The hex-float strings below were captured by running the enum-based
   implementation (commit before the estimator refactor) over the same
   fixtures and printing every intermediate size with %h. *)

let hex = Printf.sprintf "%h"

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec loop i = i + n <= h && (String.sub haystack i n = needle || loop (i + 1)) in
  loop 0

(* The four configurations that existed before the refactor, in the
   order they were captured. *)
let golden_configs =
  [
    ("sm", Els.Config.sm ~ptc:false);
    ("sm+ptc", Els.Config.sm ~ptc:true);
    ("sss", Els.Config.sss);
    ("els", Els.Config.els);
  ]

let check_golden fixture db query order expected =
  List.iter2
    (fun (name, config) want ->
      Alcotest.(check (list string))
        (Printf.sprintf "%s %s bit-identical" fixture name)
        want
        (List.map hex (Els.intermediate_sizes config db query order)))
    golden_configs expected

let test_golden_section8 () =
  let db = Datagen.Section8.build ~scale:10 ~seed:42 () in
  let query = Datagen.Section8.query_scaled ~scale:10 in
  check_golden "section8-smbg" db query [ "s"; "m"; "b"; "g" ]
    [
      [ "0x1.2p+3"; "0x1.2p+3"; "0x1.2p+3" ];
      [ "0x1.4bc6a7ef9db23p-4"; "0x1.f4f70948957b7p-26"; "0x1.35d59f7e8f961p-62" ];
      [ "0x1.4bc6a7ef9db23p-4"; "0x1.31c3c76a8d3c9p-13"; "0x1.19caf538d4157p-23" ];
      [ "0x1.2p+3"; "0x1.2p+3"; "0x1.2p+3" ];
    ];
  check_golden "section8-bgms" db query [ "b"; "g"; "m"; "s" ]
    [
      [ "0x1.388p+12"; "0x1.f4p+9"; "0x1.2p+3" ];
      [ "0x1.096bb98c7e282p-7"; "0x1.90c5a106ddfc5p-30"; "0x1.35d59f7e8f961p-62" ];
      [ "0x1.096bb98c7e282p-7"; "0x1.e9393f10e1fa8p-18"; "0x1.c2de5527b9bbdp-28" ];
      [ "0x1.2p+3"; "0x1.2p+3"; "0x1.2p+3" ];
    ]

let test_golden_chain5 () =
  let spec = Datagen.Workload.chain ~seed:42 ~n_tables:5 () in
  let query = spec.Datagen.Workload.query in
  check_golden "chain5" spec.Datagen.Workload.db query query.Query.tables
    [
      [ "0x1.307f5646b7de1p+13"; "0x1.dc17b6fc01c82p+13";
        "0x1.2a4a230a3832cp+17"; "0x1.230a1cdadc2a6p+21" ];
      [ "0x1.307f5646b7de1p+13"; "0x1.f381cc92e47e1p+6";
        "0x1.b3d441de70dfep-4"; "0x1.365782cf70ea4p-21" ];
      [ "0x1.307f5646b7de1p+13"; "0x1.dc17b6fc01c82p+13";
        "0x1.921d3922fdf8p+16"; "0x1.111efca4686ebp+20" ];
      [ "0x1.307f5646b7de1p+13"; "0x1.612ac5a3db8d2p+14";
        "0x1.9f4f972fb4a54p+18"; "0x1.95376f11367a1p+22" ];
    ]

let test_golden_star3 () =
  let spec = Datagen.Workload.star ~seed:42 ~n_dims:3 () in
  let query = spec.Datagen.Workload.query in
  (* One predicate per class: all combining rules coincide. *)
  let sizes =
    [ "0x1.08fdd67c8a60ep+15"; "0x1.cfbc3759f2298p+18"; "0x1.4f990d1c0a324p+20" ]
  in
  check_golden "star3" spec.Datagen.Workload.db query query.Query.tables
    [ sizes; sizes; sizes; sizes ]

let test_registry () =
  let ids = Els.Estimator.ids () in
  Alcotest.(check bool) "built-ins lead the registry" true
    (match ids with
    | "m" :: "ss" :: "ls" :: "pess" :: _ -> true
    | _ -> false);
  Alcotest.(check int) "registry and ids agree" (List.length ids)
    (List.length (Els.Estimator.registry ()));
  Alcotest.(check bool) "equal is by id" true
    (Els.Estimator.equal Els.Estimator.ls
       { Els.Estimator.ls with Els.Estimator.label = "renamed" });
  Alcotest.(check bool) "duplicate id rejected" true
    (match Els.Estimator.register Els.Estimator.m with
    | exception Invalid_argument _ -> true
    | () -> false);
  (* The rejected registration must not have mutated the registry. *)
  Alcotest.(check (list string)) "registry unchanged after rejection" ids
    (Els.Estimator.ids ())

let test_of_string () =
  List.iter
    (fun est ->
      let id = Els.Estimator.id est in
      let round name =
        match Els.Estimator.of_string name with
        | Ok found ->
          Alcotest.(check string)
            (Printf.sprintf "%S resolves to %s" name id)
            id (Els.Estimator.id found)
        | Error msg -> Alcotest.failf "%S rejected: %s" name msg
      in
      round id;
      round (String.uppercase_ascii id);
      round (Els.Estimator.label est))
    (Els.Estimator.registry ());
  (match Els.Estimator.of_string "lss" with
  | Ok est -> Alcotest.failf "\"lss\" resolved to %s" (Els.Estimator.id est)
  | Error msg ->
    Alcotest.(check bool) "error lists the registered ids" true
      (contains ~needle:"m, ss, ls, pess" msg);
    Alcotest.(check bool) "error suggests a close name" true
      (contains ~needle:"did you mean" msg));
  Alcotest.(check bool) "of_string_exn raises on unknown names" true
    (match Els.Estimator.of_string_exn "nosuch" with
    | exception Invalid_argument _ -> true
    | (_ : Els.Estimator.t) -> false)

(* Swapping the estimator on a built profile must be bit-identical to
   building a fresh profile with that estimator, even after the shared
   selectivity cache and the kernel have been warmed under another
   estimator — the swapped copy compiles a kernel of its own. *)
let test_with_estimator_cache_keying () =
  let db = Datagen.Section8.build ~scale:10 ~seed:42 () in
  let query = Datagen.Section8.query_scaled ~scale:10 in
  let order = [ "s"; "m"; "b"; "g" ] in
  let history profile =
    List.map hex
      (Els.Incremental.history (Els.Incremental.estimate_order profile order))
  in
  let profile = Els.prepare Els.Config.els db query in
  let ls_history = history profile in
  let swapped = Els.Profile.with_estimator Els.Estimator.ss profile in
  let fresh =
    Els.prepare
      { Els.Config.els with Els.Config.estimator = Els.Estimator.ss }
      db query
  in
  Alcotest.(check string) "swap reported" "ss"
    (Els.Estimator.id (Els.Profile.estimator swapped));
  Alcotest.(check (list string)) "swapped = freshly built" (history fresh)
    (history swapped);
  let back = Els.Profile.with_estimator Els.Estimator.ls swapped in
  Alcotest.(check (list string)) "swap back restores LS exactly" ls_history
    (history back)

let test_pess_pieces () =
  let pess = Els.Estimator.pess in
  Alcotest.(check (float 0.)) "classes combine to 1" 1.
    (pess.Els.Estimator.combine [ 0.25; 0.5 ]);
  Alcotest.(check (float 0.)) "empty class combines to 1" 1.
    (pess.Els.Estimator.combine []);
  let input left_rows right_rows =
    { Els.Estimator.left_rows; right_rows; degrees = [] }
  in
  (match pess.Els.Estimator.cap with
  | None -> Alcotest.fail "pess must cap step outputs"
  | Some cap ->
    Alcotest.(check (float 0.)) "cap is min of the inputs" 3.
      (fst (cap (input 3. 7.)));
    Alcotest.(check (float 0.)) "cap is symmetric" 3.
      (fst (cap (input 7. 3.))));
  Alcotest.(check string) "canonical config name" "PESS"
    (Els.Config.name Els.Config.pess);
  (* A cartesian step is never capped: with no join predicate the
     estimate stays the full product. *)
  let db = Catalog.Db.create () in
  let rng = Datagen.Prng.create 7 in
  List.iter
    (fun table ->
      ignore
        (Datagen.Tablegen.register (Datagen.Prng.split rng) db ~table ~rows:20
           [ Datagen.Tablegen.column "a" ~distinct:10 ]))
    [ "t1"; "t2" ];
  let cross = Query.make ~tables:[ "t1"; "t2" ] [] in
  Alcotest.(check (float 0.)) "cartesian step uncapped" 400.
    (Els.estimate Els.Config.pess db cross [ "t1"; "t2" ]);
  let joined =
    Query.make ~tables:[ "t1"; "t2" ]
      [ Query.Predicate.col_eq (Query.Cref.v "t1" "a") (Query.Cref.v "t2" "a") ]
  in
  Alcotest.(check (float 0.)) "bridged step capped at min rows" 20.
    (Els.estimate Els.Config.pess db joined [ "t1"; "t2" ])

(* The degree-statistics family: caps computed from known degree
   sequences, min-rows degradation without them, and provenance notes
   that disclose which statistic was read. *)
let test_degree_family_caps () =
  let counts l = List.map (fun (v, c) -> (Rel.Value.Int v, c)) l in
  (* a: degrees 3,1 → L2² = 10, L∞ = 3; b: degrees 2,2 → L2² = 8, L∞ = 2. *)
  let da = Stats.Degree.of_counts (counts [ (1, 3); (2, 1) ]) in
  let db = Stats.Degree.of_counts (counts [ (1, 2); (2, 2) ]) in
  let input degrees =
    { Els.Estimator.left_rows = 100.; right_rows = 200.; degrees }
  in
  let capped est s =
    match est.Els.Estimator.cap with
    | Some cap -> cap s
    | None -> Alcotest.failf "%s has no cap" (Els.Estimator.id est)
  in
  let cap_of est s = fst (capped est s) in
  let note_of est s = snd (capped est s) in
  (* lp2: min(100, 200, √10·√8) = √80. *)
  Helpers.check_float ~eps:1e-9 "lp2 = L2(a)·L2(b)"
    (Float.sqrt 10. *. Float.sqrt 8.)
    (cap_of Els.Estimator.lp2 (input [ (da, db) ]));
  (* degseq: pairwise product of sorted sequences 3·2 + 1·2 = 8, above
     min-rows territory is fine — the bound starts from infinity. *)
  Helpers.check_float ~eps:1e-9 "degseq = join_bound" 8.
    (cap_of Els.Estimator.degseq (input [ (da, db) ]));
  (* ent: min(100·L∞(b), 200·L∞(a)) = min(200, 600). *)
  Helpers.check_float ~eps:1e-9 "ent = min(|R1|·L∞(b), |R2|·L∞(a))" 200.
    (cap_of Els.Estimator.ent (input [ (da, db) ]));
  (* A conjunction of edges can only shrink lp2/ent; degseq takes the
     tightest edge. *)
  let dc = Stats.Degree.of_counts (counts [ (1, 1) ]) in
  Helpers.check_float ~eps:1e-9 "tightest edge wins" 2.
    (cap_of Els.Estimator.degseq (input [ (da, db); (dc, db) ]));
  (* No degree statistics: every cap degrades to PESS's min-rows and the
     provenance note says so. *)
  List.iter
    (fun est ->
      Helpers.check_float
        (Printf.sprintf "%s degrades to min-rows" (Els.Estimator.id est))
        100.
        (cap_of est (input []));
      Alcotest.(check bool)
        (Printf.sprintf "%s fallback note mentions min-rows"
           (Els.Estimator.id est))
        true
        (contains ~needle:"min-rows" (note_of est (input [])));
      Alcotest.(check bool)
        (Printf.sprintf "%s provenance names the degree source"
           (Els.Estimator.id est))
        true
        (contains ~needle:"degree" (note_of est (input [ (da, db) ]))))
    [ Els.Estimator.lp2; Els.Estimator.degseq; Els.Estimator.ent ]

(* End-to-end: on an analyzed key-join chain (every degree 1), all three
   degree estimators coincide with PESS's min-rows bound — the degree-1
   specialization — and their canonical configs print their labels. *)
let test_degree_family_end_to_end () =
  let spec =
    Datagen.Workload.chain ~rows_range:(50, 200)
      ~distinct_range:(10_000, 10_000) ~seed:7 ~n_tables:3 ()
  in
  let db = spec.Datagen.Workload.db in
  let query = spec.Datagen.Workload.query in
  let order = query.Query.tables in
  let pess = Els.estimate Els.Config.pess db query order in
  List.iter
    (fun est ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "%s = PESS on a key chain" (Els.Estimator.id est))
        pess
        (Els.estimate (Els.Config.of_estimator est) db query order);
      Alcotest.(check string) "canonical config prints the label"
        (Els.Estimator.label est)
        (Els.Config.name (Els.Config.of_estimator est)))
    [ Els.Estimator.lp2; Els.Estimator.degseq; Els.Estimator.ent ]

(* LP2's cap is min(|R1|', |R2|', L2(a)·L2(b)): its label names the term
   that bound the step, and on a tie the first term (min-rows) keeps it. *)
let test_lp2_cap_label () =
  let counts l = List.map (fun (v, c) -> (Rel.Value.Int v, c)) l in
  (* L2(a)·L2(b) = √10·√8 ≈ 8.94; the second pair's √2·√2 = 2. *)
  let da = Stats.Degree.of_counts (counts [ (1, 3); (2, 1) ]) in
  let db = Stats.Degree.of_counts (counts [ (1, 2); (2, 2) ]) in
  let dc = Stats.Degree.of_counts (counts [ (1, 1); (2, 1) ]) in
  let l2 = Stats.Degree.l2 da *. Stats.Degree.l2 db in
  let cap left_rows degrees =
    match Els.Estimator.lp2.Els.Estimator.cap with
    | Some cap -> cap { Els.Estimator.left_rows; right_rows = 200.; degrees }
    | None -> Alcotest.fail "lp2 has no cap"
  in
  let check name ~bound ~needle ~absent (value, label) =
    Helpers.check_float (name ^ ": bound") bound value;
    Alcotest.(check bool) (Printf.sprintf "%s: %S names %s" name label needle)
      true (contains ~needle label);
    Alcotest.(check bool) (Printf.sprintf "%s: %S omits %s" name label absent)
      false (contains ~needle:absent label)
  in
  check "L2 binds" ~bound:l2 ~needle:"L2 norms" ~absent:"min-rows"
    (cap 100. [ (da, db) ]);
  check "min-rows binds" ~bound:5. ~needle:"min-rows" ~absent:"L2 norms"
    (cap 5. [ (da, db) ]);
  check "tie keeps the first term" ~bound:l2 ~needle:"min-rows"
    ~absent:"L2 norms" (cap l2 [ (da, db) ]);
  check "a later, tighter pair" ~bound:2. ~needle:"L2 norms"
    ~absent:"min-rows" (cap 100. [ (da, db); (dc, dc) ]);
  check "no degree statistics" ~bound:5. ~needle:"no degree statistics"
    ~absent:"L2 norms" (cap 5. [])

let suite =
  [
    Alcotest.test_case "golden: section 8 fixtures" `Quick test_golden_section8;
    Alcotest.test_case "golden: chain-5 workload" `Quick test_golden_chain5;
    Alcotest.test_case "golden: star-3 workload" `Quick test_golden_star3;
    Alcotest.test_case "registry invariants" `Quick test_registry;
    Alcotest.test_case "of_string resolution" `Quick test_of_string;
    Alcotest.test_case "with_estimator cache keying" `Quick
      test_with_estimator_cache_keying;
    Alcotest.test_case "pessimistic bound pieces" `Quick test_pess_pieces;
    Alcotest.test_case "degree family caps" `Quick test_degree_family_caps;
    Alcotest.test_case "degree family end to end" `Quick
      test_degree_family_end_to_end;
    Alcotest.test_case "lp2: the cap label names the binding term" `Quick
      test_lp2_cap_label;
  ]
