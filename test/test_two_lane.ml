(* Exhaustive DP on two lanes: a level with enough edges is split by rank
   between the calling domain and the helper domain, each lane pricing
   into arrays of its own. The contracts:

   - one lane equals two lanes: plan, cost and size bits, expansions,
     kernel steps, guard counters and the raised error, whatever the
     estimator, method set, strictness or catalog damage (an unlimited
     budget keeps DP on one lane);
   - concurrent planners share the one helper without changing a bit:
     whichever finds it claimed runs its levels on one lane;
   - the helper allocates next to nothing per call, and its words count
     in DP's allocation audit;
   - queries of at most five tables (every exec-run and serve query)
     never split a level, so they never spawn the helper. *)

let estimators = Els.Estimator.[ m; ss; ls; pess; lp2; degseq; ent ]

let all_methods =
  Exec.Plan.[ Nested_loop; Sort_merge; Hash; Index_nested_loop ]

(* Every pair of tables joined on a column of its own, so each predicate
   is a class of its own and the join graph is a clique without PTC. *)
let clique ~seed ~n =
  let rng = Datagen.Prng.create seed in
  let db = Catalog.Db.create () in
  let names = List.init n (fun i -> Printf.sprintf "q%d" (i + 1)) in
  List.iteri
    (fun i name ->
      ignore
        (Datagen.Tablegen.register (Datagen.Prng.split rng) db ~table:name
           ~rows:(40 + (7 * i))
           (List.init n (fun j ->
                Datagen.Tablegen.column
                  (Printf.sprintf "c%d" (j + 1))
                  ~distinct:(5 + ((i + j) mod 9))))))
    names;
  let preds =
    List.concat
      (List.init n (fun i ->
           List.init (n - i - 1) (fun d ->
               let j = i + d + 1 in
               Query.Predicate.col_eq
                 (Query.Cref.v (List.nth names i) (Printf.sprintf "c%d" (j + 1)))
                 (Query.Cref.v (List.nth names j) (Printf.sprintf "c%d" (i + 1))))))
  in
  (db, Query.make ~tables:names preds)

type shape = Chain | Star | Clique | Comparison of Query.Predicate.comparison

type case = {
  shape : shape;
  seed : int;
  n : int;  (** tables *)
  methods : Exec.Plan.join_method list option;
  strictness : Els.Config.strictness;
  corruption : Harness.Fault.corruption option;
}

let shape_name = function
  | Chain -> "chain"
  | Star -> "star"
  | Clique -> "clique"
  | Comparison op -> "comparison " ^ Test_kernel.op_name op

let strictness_name = function
  | Els.Config.Strict -> "strict"
  | Els.Config.Repair -> "repair"
  | Els.Config.Trap -> "trap"

let print_case c =
  Printf.sprintf "%s seed=%d n=%d methods=%s %s corruption=%s"
    (shape_name c.shape) c.seed c.n
    (match c.methods with None -> "default" | Some _ -> "all four")
    (strictness_name c.strictness)
    (match c.corruption with
    | None -> "none"
    | Some k -> Harness.Fault.name k)

let gen_case =
  QCheck2.Gen.(
    let* shape =
      oneofl
        Query.Predicate.
          [ Chain; Star; Clique; Comparison Lt; Comparison Ge; Comparison (Band 2.) ]
    in
    let* seed = int_range 0 10000 in
    let* n = int_range 9 12 in
    let* methods = oneofl [ None; Some all_methods ] in
    let* strictness = oneofl Els.Config.[ Strict; Repair; Trap ] in
    let* corruption =
      frequency
        [ (2, return None); (1, map Option.some (oneofl Harness.Fault.all)) ]
    in
    return { shape; seed; n; methods; strictness; corruption })

let build c =
  let db, query =
    match c.shape with
    | Chain ->
      let spec =
        Datagen.Workload.chain ~rows_range:(30, 200) ~distinct_range:(5, 60)
          ~seed:c.seed ~n_tables:c.n ()
      in
      (spec.Datagen.Workload.db, spec.Datagen.Workload.query)
    | Star ->
      let spec =
        Datagen.Workload.star ~fact_rows:400 ~dim_rows_range:(20, 60)
          ~distinct_range:(5, 20) ~distribution:(Datagen.Distribution.Zipf 1.2)
          ~seed:c.seed ~n_dims:(c.n - 1) ()
      in
      (spec.Datagen.Workload.db, spec.Datagen.Workload.query)
    | Clique -> clique ~seed:c.seed ~n:c.n
    | Comparison op ->
      let spec =
        Datagen.Workload.comparison ~rows_range:(20, 80) ~distinct_range:(5, 30)
          ~op ~seed:c.seed ~n_tables:c.n ()
      in
      (spec.Datagen.Workload.db, spec.Datagen.Workload.query)
  in
  match c.corruption with
  | None -> (db, query)
  | Some k -> (Harness.Fault.corrupt_db k db, query)

(* Everything a DP call is judged by, raised error included, with the
   profile's kernel steps and guard counters after it. *)
let outcome ?methods ?budget config db query =
  let result =
    match Els.prepare config db query with
    | exception Els.Els_error.Error e -> Error ("prepare: " ^ Els.Els_error.to_string e)
    | profile -> (
      match Optimizer.Dp.optimize_traced ?methods ?budget profile query with
      | node, provenance ->
        let state = node.Optimizer.Dp.state in
        let g = Els.Profile.guard_stats profile in
        Ok
          (Printf.sprintf
             "%s | cost %h | size %h | history %s | %s | steps %d | guard \
              %d/%d/%d"
             (Exec.Plan.to_string node.Optimizer.Dp.plan)
             node.Optimizer.Dp.cost state.Els.Incremental.size
             (String.concat ","
                (List.map (Printf.sprintf "%h") (Els.Incremental.history state)))
             (Optimizer.Provenance.to_string provenance)
             (Els.Profile.kernel_steps profile)
             g.Els.Guard.violations g.Els.Guard.repairs g.Els.Guard.fallbacks)
      | exception Els.Els_error.Error e ->
        let g = Els.Profile.guard_stats profile in
        Error
          (Printf.sprintf "%s | steps %d | guard %d/%d/%d"
             (Els.Els_error.to_string e)
             (Els.Profile.kernel_steps profile)
             g.Els.Guard.violations g.Els.Guard.repairs g.Els.Guard.fallbacks))
  in
  match result with Ok s -> s | Error s -> "raised: " ^ s

let one_lane ?methods config db query =
  outcome ?methods ~budget:(Rel.Budget.create ()) config db query

let prop_one_lane_is_two_lanes =
  QCheck2.Test.make ~count:25
    ~name:"two lanes = one lane (plan, bits, counts, error)" ~print:print_case
    gen_case (fun c ->
      let db, query = build c in
      List.for_all
        (fun estimator ->
          let config =
            Els.Config.of_estimator ~strictness:c.strictness estimator
          in
          let one = one_lane ?methods:c.methods config db query in
          let two = outcome ?methods:c.methods config db query in
          String.equal one two
          || QCheck2.Test.fail_reportf "%s\none lane:  %s\ntwo lanes: %s"
               (Els.Estimator.id estimator) one two)
        estimators)

let chain12 seed =
  let spec =
    Datagen.Workload.chain ~rows_range:(100, 300) ~distinct_range:(20, 100)
      ~seed ~n_tables:12 ()
  in
  (spec.Datagen.Workload.db, spec.Datagen.Workload.query)

(* A 12-table chain splits eight of its eleven levels whenever the host
   can run the helper. *)
let test_levels_split () =
  let db, query = chain12 7 in
  let before = Optimizer.Dp.helper_stats () in
  let two = outcome Els.Config.els db query in
  let after = Optimizer.Dp.helper_stats () in
  Alcotest.(check string) "two lanes = one lane"
    (one_lane Els.Config.els db query)
    two;
  if Domain.recommended_domain_count () >= 2 then begin
    Alcotest.(check int) "split levels" 8
      (after.Optimizer.Dp.levels - before.Optimizer.Dp.levels);
    Alcotest.(check bool) "the helper ran expansions" true
      (after.Optimizer.Dp.expansions > before.Optimizer.Dp.expansions)
  end

(* Two planners at once: the one that finds the helper claimed runs one
   lane, and every result equals the solo run bit for bit. *)
let test_concurrent_planners () =
  let db, query = chain12 7 in
  let solo = outcome Els.Config.els db query in
  let planner () =
    Domain.spawn (fun () ->
        let same = ref 0 in
        for _ = 1 to 50 do
          if String.equal (outcome Els.Config.els db query) solo then incr same
        done;
        !same)
  in
  let a = planner () and b = planner () in
  Alcotest.(check (pair int int)) "both planners match the solo run" (50, 50)
    (Domain.join a, Domain.join b)

(* Once its lane is sized, the helper allocates nothing per call: its own
   minor words (which [Gc.minor_words] on the calling domain never sees)
   stay within a few dozen words per DP call. *)
let test_helper_allocation () =
  let db, query = chain12 7 in
  let profile = Els.prepare Els.Config.els db query in
  for _ = 1 to 3 do
    ignore (Optimizer.Dp.optimize profile query)
  done;
  let calls = 20 in
  let before = Optimizer.Dp.helper_stats () in
  for _ = 1 to calls do
    ignore (Optimizer.Dp.optimize profile query)
  done;
  let after = Optimizer.Dp.helper_stats () in
  let per_call =
    (after.Optimizer.Dp.minor_words -. before.Optimizer.Dp.minor_words)
    /. float_of_int calls
  in
  match Sys.backend_type with
  | Sys.Native ->
    if not (per_call < 48.) then
      Alcotest.failf "the helper allocated %.1f minor words per DP call"
        per_call
  | Sys.Bytecode | Sys.Other _ -> () (* bytecode boxes every float *)

(* The widest level of a 5-table clique holds C(5,2)·3 = 30 edges, far
   below the split threshold: no query of exec-run or serve's size (at
   most five tables) ever splits a level, so none spawns the helper. *)
let test_small_queries_stay_on_one_lane () =
  let before = (Optimizer.Dp.helper_stats ()).Optimizer.Dp.levels in
  List.iter
    (fun n ->
      List.iter
        (fun (db, query) ->
          List.iter
            (fun estimator ->
              List.iter
                (fun methods ->
                  let profile =
                    Els.prepare (Els.Config.of_estimator estimator) db query
                  in
                  ignore (Optimizer.Dp.optimize ?methods profile query))
                [ None; Some all_methods ])
            estimators)
        [
          (let s =
             Datagen.Workload.chain ~seed:n ~n_tables:n ~rows_range:(20, 60)
               ~distinct_range:(5, 20) ()
           in
           (s.Datagen.Workload.db, s.Datagen.Workload.query));
          (let s =
             Datagen.Workload.star ~seed:n ~n_dims:(n - 1) ~fact_rows:100 ()
           in
           (s.Datagen.Workload.db, s.Datagen.Workload.query));
          clique ~seed:n ~n;
        ])
    [ 2; 3; 4; 5 ];
  Alcotest.(check int) "no level split" before
    (Optimizer.Dp.helper_stats ()).Optimizer.Dp.levels

let suite =
  [
    Alcotest.test_case "a 12-table chain splits its wide levels" `Quick
      test_levels_split;
    Alcotest.test_case "one lane = two lanes" `Quick (fun () ->
        QCheck2.Test.check_exn prop_one_lane_is_two_lanes);
    Alcotest.test_case "concurrent planners share the helper" `Quick
      test_concurrent_planners;
    Alcotest.test_case "helper allocation per DP call" `Quick
      test_helper_allocation;
    Alcotest.test_case "queries of at most five tables never split" `Quick
      test_small_queries_stay_on_one_lane;
  ]
