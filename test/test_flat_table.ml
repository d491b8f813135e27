(* The flat build tables behind hash and index joins: their order and
   accounting contract against the other join methods, their reuse across
   runs, and the executor's allocation audit. *)

let int_ n = Rel.Value.Int n
let float_ x = Rel.Value.Float x
let c t col = Query.Cref.v t col
let ty_int = Rel.Value.Ty_int

let rel table cols rows =
  Rel.Relation.of_tuples
    (Rel.Schema.make
       (List.map (fun (name, ty) -> Rel.Schema.column ~table ~name ty) cols))
    (List.map Array.of_list rows)

let rows op =
  List.map
    (fun t -> List.map Rel.Value.to_string (Array.to_list t))
    (Rel.Relation.to_list (Exec.Operator.to_relation op))

let sorted op = List.sort compare (rows op)
let eq_a = Query.Predicate.col_eq (c "r" "a") (c "s" "a")
let of_rel = Exec.Operator.of_relation

(* The four ways to join r and s on [preds], each over fresh counters. *)
let hj preds r s =
  let k = Exec.Counters.create () in
  (Exec.Hash_join.join k preds ~outer:(of_rel r) ~inner:(of_rel s), k)

let inl preds r s =
  let k = Exec.Counters.create () in
  ( Exec.Index_nested_loop.join k preds ~inner_filters:[] ~outer:(of_rel r)
      ~inner:s,
    k )

let nl preds r s =
  Exec.Nested_loop.join (Exec.Counters.create ()) preds ~outer:(of_rel r)
    ~inner_schema:(Rel.Relation.schema s) ~make_inner:(fun () -> of_rel s)

let sm preds r s =
  Exec.Sort_merge.join (Exec.Counters.create ()) preds ~outer:(of_rel r)
    ~inner:(of_rel s)

let s_dups () =
  rel "s"
    [ ("a", ty_int); ("c", ty_int) ]
    [
      [ int_ 2; int_ 1 ]; [ int_ 3; int_ 9 ]; [ int_ 2; int_ 2 ];
      [ int_ 2; int_ 3 ]; [ int_ 4; int_ 9 ]; [ int_ 2; int_ 5 ];
    ]

let test_duplicates_most_recent_first () =
  let r = rel "r" [ ("a", ty_int) ] [ [ int_ 2 ]; [ int_ 3 ] ] in
  let want =
    [
      [ "2"; "2"; "5" ]; [ "2"; "2"; "3" ]; [ "2"; "2"; "2" ];
      [ "2"; "2"; "1" ]; [ "3"; "3"; "9" ];
    ]
  in
  let s = s_dups () in
  Alcotest.(check (list (list string))) "hash join" want
    (rows (fst (hj [ eq_a ] r s)));
  Alcotest.(check (list (list string))) "index nested loop" want
    (rows (fst (inl [ eq_a ] r s)));
  Alcotest.(check (list (list string))) "index lookup"
    [ [ "2"; "5" ]; [ "2"; "3" ]; [ "2"; "2" ]; [ "2"; "1" ] ]
    (List.map
       (fun t -> List.map Rel.Value.to_string (Array.to_list t))
       (Exec.Index.lookup (Exec.Index.build s ~column:0) (int_ 2)))

(* 14170 and 26632 share a [Rel.Value.hash], so each probe for one finds
   both build rows: it is charged one comparison for the probe plus
   [n_keys] for each of them, and emits only its own key. *)
let test_colliding_hashes () =
  Alcotest.(check int) "the two keys collide"
    (Rel.Value.hash (int_ 14170)) (Rel.Value.hash (int_ 26632));
  let s = rel "s" [ ("a", ty_int) ] [ [ int_ 14170 ]; [ int_ 26632 ] ] in
  List.iter
    (fun key ->
      let r = rel "r" [ ("a", ty_int) ] [ [ int_ key ] ] in
      let op, k = hj [ eq_a ] r s in
      let k_str = string_of_int key in
      Alcotest.(check (list (list string))) "own key only"
        [ [ k_str; k_str ] ] (rows op);
      Alcotest.(check int) "probe + one per colliding row" 3
        k.Exec.Counters.comparisons;
      Alcotest.(check int) "one row out" 1 k.Exec.Counters.tuples_output)
    [ 14170; 26632 ]

let all_methods preds r s =
  [
    ("hash join", fst (hj preds r s));
    ("index nested loop", fst (inl preds r s));
    ("nested loop", nl preds r s);
  ]

let test_null_and_type_never_match () =
  let r = rel "r" [ ("a", ty_int) ] [ [ Rel.Value.Null ]; [ int_ 1 ] ] in
  let s =
    rel "s"
      [ ("a", Rel.Value.Ty_float) ]
      [ [ Rel.Value.Null ]; [ float_ 1. ] ]
  in
  List.iter
    (fun (name, op) ->
      Alcotest.(check (list (list string))) name [] (rows op))
    (all_methods [ eq_a ] r s);
  let index = Exec.Index.build s ~column:0 in
  Alcotest.(check int) "NULL not indexed" 1 (Exec.Index.key_count index);
  Alcotest.(check int) "NULL probe" 0
    (List.length (Exec.Index.lookup index Rel.Value.Null))

let test_signed_zero_and_nan_match () =
  let r =
    rel "r" [ ("a", Rel.Value.Ty_float) ] [ [ float_ (-0.) ]; [ float_ nan ] ]
  in
  let s =
    rel "s"
      [ ("a", Rel.Value.Ty_float) ]
      [ [ float_ 0. ]; [ float_ nan ]; [ float_ 2.5 ] ]
  in
  List.iter
    (fun (name, op) ->
      Alcotest.(check (list (list string))) name
        [ [ "-0"; "0" ]; [ "nan"; "nan" ] ]
        (sorted op))
    (all_methods [ eq_a ] r s)

let db_of relations =
  let db = Catalog.Db.create () in
  List.iter
    (fun (name, r) -> ignore (Catalog.Analyze.register db ~name r))
    relations;
  db

(* A nested loop rebuilds its inner per outer row and never builds it
   once more just to learn its schema: 3 rows of r, then for each of them
   t's 20 build rows and s's 10 probe rows, is 93 reads. *)
let test_nested_loop_builds_no_phantom_inner () =
  let keyed table n =
    rel table [ ("k", ty_int) ] (List.init n (fun i -> [ int_ (i mod 4) ]))
  in
  let db =
    db_of [ ("r", keyed "r" 3); ("s", keyed "s" 10); ("t", keyed "t" 20) ]
  in
  let plan =
    Exec.Plan.Join
      {
        method_ = Exec.Plan.Nested_loop;
        outer = Exec.Plan.scan "r";
        inner =
          Exec.Plan.Join
            {
              method_ = Exec.Plan.Hash;
              outer = Exec.Plan.scan "s";
              inner = Exec.Plan.scan "t";
              predicates =
                [ Query.Predicate.col_eq (c "s" "k") (c "t" "k") ];
            };
        predicates = [];
      }
  in
  let count, k, _ = Exec.Executor.count db plan in
  Alcotest.(check int) "tuples read" 93 k.Exec.Counters.tuples_read;
  (* s has 10 rows over keys 0..3 (3,3,2,2), t 20 (5 each): 50 pairs. *)
  Alcotest.(check int) "count" (3 * 50) count

(* Section 8 under SM's index nested loops, ELS's hash joins over
   filtered scans, and SM's hash joins over whole tables: plans whose
   tables differ in size. Run in another order, after budget trips and
   from two domains at once, every run reads as the plan's first. *)
let render db plan =
  let rows, k, _ = Exec.Executor.count db plan in
  let result = Exec.Executor.run db plan in
  Printf.sprintf "%d r%d c%d o%d %s" rows k.Exec.Counters.tuples_read
    k.Exec.Counters.comparisons k.Exec.Counters.tuples_output
    (Digest.to_hex
       (Digest.string
          (String.concat "\n"
             (List.map
                (Format.asprintf "%a" Rel.Tuple.pp)
                (Rel.Relation.to_list result.Exec.Executor.relation)))))

let all4 = Exec.Plan.[ Nested_loop; Sort_merge; Hash; Index_nested_loop ]

let section8_plans scale =
  let db = Datagen.Section8.build ~scale ~seed:42 () in
  let query = Datagen.Section8.query_scaled ~scale in
  let choose ?(methods = all4) config =
    (Optimizer.choose ~methods config db query).Optimizer.plan
  in
  let sm = Els.Config.sm ~ptc:false in
  ( db,
    [
      choose sm; choose Els.Config.els;
      choose ~methods:Exec.Plan.[ Nested_loop; Hash ] sm;
    ] )

let test_reused_tables_invisible () =
  let db, plans = section8_plans 20 in
  let first = List.map (render db) plans in
  let again () = List.map (render db) (List.rev plans) |> List.rev in
  Alcotest.(check (list string)) "reversed order" first (again ());
  List.iter
    (fun plan ->
      let budget = Rel.Budget.create ~row_budget:700 () in
      match Exec.Executor.count_result ~budget db plan with
      | Error _, _, _ -> ()
      | Ok _, _, _ -> Alcotest.fail "the budget should trip mid-run")
    plans;
  Alcotest.(check (list string)) "after budget trips" first (again ());
  let domains =
    List.map
      (fun plan ->
        let want = render db plan in
        Domain.spawn (fun () ->
            List.for_all
              (fun _ -> String.equal (render db plan) want)
              (List.init 20 Fun.id)))
      plans
  in
  List.iter
    (fun d -> Alcotest.(check bool) "concurrent runs" true (Domain.join d))
    domains

(* --- property: every method returns nested loop's multiset --- *)

let key_domain =
  [| Rel.Value.Null; int_ 0; int_ 1; int_ 2; int_ 14170; int_ 26632 |]

let gen_side =
  QCheck2.Gen.(
    list_size (int_range 0 12)
      (triple (int_range 0 5) (int_range 0 5) (int_range 0 4)))

let side table cells =
  rel table
    [ ("a", ty_int); ("b", ty_int); ("x", ty_int) ]
    (List.map (fun (a, b, x) -> [ key_domain.(a); key_domain.(b); int_ x ])
       cells)

let print_case (two_keys, residual, r, s) =
  let cells l =
    String.concat ";"
      (List.map (fun (a, b, x) -> Printf.sprintf "%d,%d,%d" a b x) l)
  in
  Printf.sprintf "two_keys=%b residual=%b r=[%s] s=[%s]" two_keys residual
    (cells r) (cells s)

(* Hash join's comparisons, computed from their definition: one per outer
   row, [n_keys] per (outer, build) pair with non-NULL keys and equal
   [Rel.Tuple.hash_at], and one per residual predicate per pair whose
   keys match. *)
let expected_hj_comparisons ~keys ~n_residual r s =
  let cols f = List.map f keys in
  let lc = cols fst and rc = cols snd in
  let non_null cols t =
    List.for_all (fun i -> not (Rel.Value.is_null t.(i))) cols
  in
  Rel.Relation.fold
    (fun acc l ->
      Rel.Relation.fold
        (fun acc s ->
          if non_null lc l && non_null rc s
             && Rel.Tuple.hash_at lc l = Rel.Tuple.hash_at rc s
          then
            acc + List.length keys
            + (if List.for_all (fun (i, j) -> Rel.Value.equal l.(i) s.(j)) keys
               then n_residual else 0)
          else acc)
        (acc + 1) s)
    0 r

let prop_methods_agree_with_nested_loop =
  QCheck2.Test.make ~count:300
    ~name:"HJ = INL = SM = NL on keys with duplicates, NULLs and collisions"
    ~print:print_case
    QCheck2.Gen.(quad bool bool gen_side gen_side)
    (fun (two_keys, with_residual, r_cells, s_cells) ->
      let r = side "r" r_cells and s = side "s" s_cells in
      let keys = (0, 0) :: (if two_keys then [ (1, 1) ] else []) in
      let eq_b = Query.Predicate.col_eq (c "r" "b") (c "s" "b") in
      let le_x =
        Query.Predicate.col_cmp (c "r" "x") Query.Predicate.Le (c "s" "x")
      in
      let preds =
        (eq_a :: (if two_keys then [ eq_b ] else []))
        @ if with_residual then [ le_x ] else []
      in
      let want = sorted (nl preds r s) in
      let hj_op, hj_k = hj preds r s in
      sorted hj_op = want
      && sorted (fst (inl preds r s)) = want
      && sorted (sm preds r s) = want
      && hj_k.Exec.Counters.comparisons
         = expected_hj_comparisons ~keys
             ~n_residual:(if with_residual then 1 else 0)
             r s)

(* --- allocation audit --- *)

(* The T1-ablation plans at full scale: SM's index nested loops over m,
   b and g (160k inner rows) and ELS's hash joins. Once warmed up, a run
   builds into its domain's reused tables: no word goes straight to the
   major heap (the Hashtbl builds put 389,139 there per SM run), and the
   minor heap sees under 0.1 words per tuple read (9.0 and 4.1 before). *)
let test_executor_allocation () =
  let db, plans = section8_plans 1 in
  let sm, els = (List.nth plans 0, List.nth plans 1) in
  Alcotest.(check (list string)) "audited plans"
    [ "(((s INL m) INL b) INL g)"; "(((s HJ m) HJ b) HJ g)" ]
    (List.map Exec.Plan.to_string [ sm; els ]);
  List.iter
    (fun plan ->
      let name = Exec.Plan.to_string plan in
      ignore (Exec.Executor.count db plan) (* warmup *);
      let w0 = Gc.minor_words () in
      let w1 = Gc.minor_words () in
      let overhead = w1 -. w0 in
      let _, promoted0, major0 = Gc.counters () in
      let w2 = Gc.minor_words () in
      let rows, k, _ = Exec.Executor.count db plan in
      let w3 = Gc.minor_words () in
      let _, promoted1, major1 = Gc.counters () in
      let direct = major1 -. major0 -. (promoted1 -. promoted0) in
      let per_read =
        (w3 -. w2 -. overhead) /. float_of_int k.Exec.Counters.tuples_read
      in
      Alcotest.(check int) (name ^ ": rows") 99 rows;
      match Sys.backend_type with
      | Sys.Native ->
        if direct >= 1000. then
          Alcotest.failf "%s: %.0f words allocated directly in the major heap"
            name direct;
        if not (per_read < 0.1) then
          Alcotest.failf "%s: %.3f minor words per tuple read (want < 0.1)"
            name per_read
      | Sys.Bytecode | Sys.Other _ -> ())
    [ sm; els ]

let suite =
  [
    Alcotest.test_case "duplicate keys come out most recent first" `Quick
      test_duplicates_most_recent_first;
    Alcotest.test_case "colliding hashes charged, not emitted" `Quick
      test_colliding_hashes;
    Alcotest.test_case "NULL and Int/Float keys never match" `Quick
      test_null_and_type_never_match;
    Alcotest.test_case "-0.0 matches 0.0, NaN matches NaN" `Quick
      test_signed_zero_and_nan_match;
    Alcotest.test_case "nested loop builds no phantom inner" `Quick
      test_nested_loop_builds_no_phantom_inner;
    Alcotest.test_case "reused tables are invisible" `Quick
      test_reused_tables_invisible;
    QCheck_alcotest.to_alcotest prop_methods_agree_with_nested_loop;
  ]

let alloc_suite =
  [
    Alcotest.test_case "executor allocation per tuple read" `Quick
      test_executor_allocation;
  ]
