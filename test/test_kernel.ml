(* Compiled estimation kernels (Els.Kernel / Els.Profile.kernel).

   Four contracts, matching the two-tier ladder documented in Incremental
   (list-scan reference -> kernel):

   - every estimator lowers — all 20 pairings of a combine arm with a
     cap arm, the seven registry estimators among them, and a copy of a
     registry estimator under another id — and so does every join
     predicate, comparisons included: estimation never leaves the kernel
     and the fallback counter stays 0;
   - the kernel is bit-identical to the list-scan reference tier: sizes
     and histories agree [Float.equal] across all 20 pairings, every join
     order, left-deep and bushy, on equality chains, Zipf stars and
     comparison chains, on corrupted catalogs and corrupted degree
     statistics (Repair and Trap, guards tripping), and under an
     optimizer budget;
   - one kernel extend step of any pairing allocates exactly zero
     minor-heap words (measured with Gc.minor_words, not assumed);
   - equivalence-class grouping keys on [Cref.equal]: two eligible
     predicates of one class yield one group and one combined
     selectivity (regression for the polymorphic-assoc grouping). *)

let count = 60
let methods = [ Exec.Plan.Nested_loop; Exec.Plan.Sort_merge; Exec.Plan.Hash ]

(* --- generators (mirroring test_properties.ml) --- *)

type chain_spec = {
  dims : (int * int) list; (* (distinct, multiplicity) per table *)
  seed : int;
}

let gen_chain_spec =
  QCheck2.Gen.(
    let* n = int_range 2 4 in
    let* dims = list_repeat n (pair (int_range 2 12) (int_range 1 5)) in
    let* seed = int_range 0 10000 in
    return { dims; seed })

let print_chain_spec spec =
  Printf.sprintf "seed=%d dims=[%s]" spec.seed
    (String.concat "; "
       (List.map (fun (d, m) -> Printf.sprintf "(%d,%d)" d m) spec.dims))

let build_chain spec =
  let rng = Datagen.Prng.create spec.seed in
  let db = Catalog.Db.create () in
  let names = List.mapi (fun i _ -> Printf.sprintf "t%d" (i + 1)) spec.dims in
  List.iter2
    (fun name (distinct, mult) ->
      ignore
        (Datagen.Tablegen.register (Datagen.Prng.split rng) db ~table:name
           ~rows:(distinct * mult)
           [ Datagen.Tablegen.column "a" ~distinct ]))
    names spec.dims;
  let rec links = function
    | a :: (b :: _ as rest) ->
      Query.Predicate.col_eq (Query.Cref.v a "a") (Query.Cref.v b "a")
      :: links rest
    | [ _ ] | [] -> []
  in
  (db, Query.make ~tables:names (links names), names)

(* The workload shapes the differential properties sweep: equality chains,
   Zipf-skewed stars (where the degree statistics matter) and comparison
   chains (each comparison its own kernel class). *)
type workload =
  | Chain of chain_spec
  | Star of { seed : int; n_dims : int; theta : float }
  | Comparison of {
      seed : int;
      n_tables : int;
      op : Query.Predicate.comparison;
    }

let gen_workload =
  QCheck2.Gen.(
    oneof
      [
        map (fun spec -> Chain spec) gen_chain_spec;
        (let* seed = int_range 0 10000 in
         let* n_dims = int_range 2 3 in
         let* theta = oneofl [ 0.8; 1.2; 1.6 ] in
         return (Star { seed; n_dims; theta }));
        (let* seed = int_range 0 10000 in
         let* n_tables, op =
           oneofl
             Query.Predicate.
               [ (2, Lt); (2, Ge); (2, Band 2.5); (3, Lt); (3, Band 1.) ]
         in
         return (Comparison { seed; n_tables; op }));
      ])

let op_name op =
  match op with
  | Query.Predicate.Band eps -> Printf.sprintf "band %g" eps
  | op -> (
    match Query.Predicate.cmp_of_comparison op with
    | Some cmp -> Rel.Cmp.to_string cmp
    | None -> "=")

let print_workload = function
  | Chain spec -> "chain " ^ print_chain_spec spec
  | Star { seed; n_dims; theta } ->
    Printf.sprintf "zipf(%g) star seed=%d dims=%d" theta seed n_dims
  | Comparison { seed; n_tables; op } ->
    Printf.sprintf "comparison(%s) chain seed=%d tables=%d" (op_name op) seed
      n_tables

let build_workload = function
  | Chain spec -> build_chain spec
  | Star { seed; n_dims; theta } ->
    let spec =
      Datagen.Workload.star ~fact_rows:300 ~dim_rows_range:(20, 60)
        ~distinct_range:(5, 20)
        ~distribution:(Datagen.Distribution.Zipf theta)
        ~seed ~n_dims ()
    in
    let query = spec.Datagen.Workload.query in
    (spec.Datagen.Workload.db, query, query.Query.tables)
  | Comparison { seed; n_tables; op } ->
    let spec =
      Datagen.Workload.comparison ~rows_range:(20, 80) ~distinct_range:(5, 30)
        ~op ~seed ~n_tables ()
    in
    let query = spec.Datagen.Workload.query in
    (spec.Datagen.Workload.db, query, query.Query.tables)

let rec permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x ->
        let rest = List.filter (fun y -> y <> x) l in
        List.map (fun p -> x :: p) (permutations rest))
      l

(* Every pairing of a combine arm with a cap arm: the registry estimator
   that declares the pairing where there is one, otherwise a record under
   LS's pipeline flags. Checking all 20 leaves no pairing of arms free to
   drift between the two tiers. *)
let records =
  let open Els.Estimator in
  List.concat_map
    (fun (combine, combine_name) ->
      List.map
        (fun (cap, cap_name) ->
          match
            List.find_opt
              (fun e -> e.combine = combine && e.cap = cap)
              (registry ())
          with
          | Some e -> e
          | None ->
            let id = combine_name ^ "+" ^ cap_name in
            { ls with id; label = String.uppercase_ascii id; combine; cap })
        [
          (No_cap, "none"); (Min_rows, "min-rows"); (Lp2, "lp2");
          (Degseq, "degseq"); (Ent, "ent");
        ])
    [
      (Product, "product"); (Smallest, "smallest"); (Largest, "largest");
      (Unit, "unit");
    ]

(* The canonical configuration of each of the 20 records. *)
let configs () = List.map Els.Config.of_estimator records

let split k l =
  (List.filteri (fun i _ -> i < k) l, List.filteri (fun i _ -> i >= k) l)

(* The size history of one order on one tier: left-deep, then the two
   halves bridged by a bushy join. *)
let tier_history (estimate_order, join_states) profile order =
  let left, right = split (List.length order / 2) order in
  let linear = estimate_order profile order in
  let bushy =
    match (left, right) with
    | _ :: _, _ :: _ ->
      Els.Incremental.history
        (join_states profile (estimate_order profile left)
           (estimate_order profile right))
    | _, _ -> []
  in
  Els.Incremental.history linear @ bushy

let kernel_tier = (Els.Incremental.estimate_order, Els.Incremental.join_states)

let reference_tier =
  (Els.Incremental.estimate_order_scan, Els.Incremental.join_states_scan)

let histories profile order =
  ( tier_history kernel_tier profile order,
    tier_history reference_tier profile order )

let tiers_agree profile orders =
  List.for_all
    (fun order ->
      let kernel, reference = histories profile order in
      List.length kernel = List.length reference
      && List.for_all2 Float.equal kernel reference)
    orders

(* --- lowering coverage --- *)

let test_panel_kernels_compile () =
  let db, query, names =
    build_chain { dims = [ (6, 2); (4, 3); (8, 1) ]; seed = 42 }
  in
  Alcotest.(check int) "20 distinct pairings" 20
    (List.length
       (List.sort_uniq compare
          (List.map
             (fun e -> (e.Els.Estimator.combine, e.Els.Estimator.cap))
             records)));
  List.iter
    (fun config ->
      let name = Els.Config.name config in
      let profile = Els.prepare config db query in
      ignore (Els.Incremental.final_size profile names : float);
      Alcotest.(check bool) (name ^ " runs on the kernel") true
        (Els.Profile.kernel_steps profile > 0);
      Alcotest.(check int) (name ^ " never falls back") 0
        (Els.Profile.kernel_fallback_steps profile))
    (configs ())

(* An estimator is its arms, not its id: a copy of Rule M under another
   identity lowers to Rule M's arm and estimates bit-identically. *)
let test_custom_estimator_lowers () =
  let db, query, names =
    build_chain { dims = [ (9, 1); (5, 2); (7, 3) ]; seed = 11 }
  in
  let copy = { Els.Estimator.m with id = "custom-m"; label = "custom-M" } in
  let profile = Els.prepare (Els.Config.of_estimator copy) db query in
  let reference =
    Els.prepare (Els.Config.of_estimator Els.Estimator.m) db query
  in
  List.iter
    (fun order ->
      Alcotest.(check bool) "copy = Rule M" true
        (Float.equal
           (Els.Incremental.final_size profile order)
           (Els.Incremental.final_size reference order)))
    (permutations names);
  Alcotest.(check bool) "custom estimator ran on the kernel" true
    (Els.Profile.kernel_steps profile > 0);
  Alcotest.(check int) "no reference-tier steps" 0
    (Els.Profile.kernel_fallback_steps profile)

(* A comparison join lowers as a singleton class: a mixed query runs on
   the kernel, agrees with the reference tier, and the fallback counter
   — the signal CI asserts on — counts only the reference replay. *)
let test_comparison_join_lowers () =
  let db, _, names =
    build_chain { dims = [ (6, 2); (4, 3); (8, 1) ]; seed = 7 }
  in
  let link a op b =
    Query.Predicate.col_cmp (Query.Cref.v a "a") op (Query.Cref.v b "a")
  in
  let query =
    Query.make ~tables:names
      [ link "t1" Query.Predicate.Eq "t2"; link "t2" Query.Predicate.Lt "t3" ]
  in
  let profile = Els.prepare Els.Config.els db query in
  let size = Els.Incremental.final_size profile names in
  Alcotest.(check bool) "mixed query ran on the kernel" true
    (Els.Profile.kernel_steps profile > 0);
  Alcotest.(check int) "no fallback on the optimizer path" 0
    (Els.Profile.kernel_fallback_steps profile);
  let replayed = Els.Incremental.estimate_order_scan profile names in
  Alcotest.(check bool) "kernel = reference" true
    (Float.equal size replayed.Els.Incremental.size);
  Alcotest.(check int) "each reference step counted" (List.length names - 1)
    (Els.Profile.kernel_fallback_steps profile)

(* --- allocation regression --- *)

(* The seven registry estimators' canonical configurations: the three
   rules, PESS and the degree-statistics family. *)
let registry_configs =
  List.map Els.Config.of_estimator
    Els.Estimator.[ ls; ss; m; pess; lp2; degseq; ent ]

(* One DP-style sweep over all 2^n masks through the *_into entry points.
   Ascending mask order propagates sizes without any submask bookkeeping,
   and the loop itself is closure-free so the audit below charges only the
   kernel. *)
let sweep kernel sizes n =
  Array.fill sizes 0 (Array.length sizes) Float.nan;
  for bit = 0 to n - 1 do
    Els.Kernel.start_into kernel ~sizes ~bit
  done;
  for mask = 1 to (1 lsl n) - 1 do
    if not (Float.is_nan sizes.(mask)) then
      for bit = 0 to n - 1 do
        if
          mask land (1 lsl bit) = 0
          && Float.is_nan sizes.(mask lor (1 lsl bit))
        then Els.Kernel.extend_into kernel ~sizes ~mask ~bit
      done
  done

let test_zero_alloc_per_step () =
  let n = 10 in
  let chain =
    Datagen.Workload.chain ~rows_range:(100, 300) ~distinct_range:(20, 100)
      ~seed:7 ~n_tables:n ()
  in
  List.iter
    (fun config ->
      let name = Els.Config.name config in
      let kernel =
        Els.Profile.kernel
          (Els.prepare config chain.Datagen.Workload.db
             chain.Datagen.Workload.query)
      in
      let sizes = Array.make (1 lsl n) Float.nan in
      sweep kernel sizes n (* warmup: fault in code paths before measuring *);
      let steps0 = Els.Kernel.steps kernel in
      (* An empty Gc.minor_words window measures the sampling overhead (the
         boxed float the probe itself returns); the sweep must add exactly
         nothing on top of it. *)
      let w0 = Gc.minor_words () in
      let w1 = Gc.minor_words () in
      let overhead = w1 -. w0 in
      let w2 = Gc.minor_words () in
      sweep kernel sizes n;
      let w3 = Gc.minor_words () in
      let allocated = w3 -. w2 -. overhead in
      let steps = Els.Kernel.steps kernel - steps0 in
      (* Every mask with >= 2 tables is extended into exactly once. *)
      Alcotest.(check int) (name ^ ": extend steps per sweep")
        ((1 lsl n) - 1 - n) steps;
      Alcotest.(check bool) (name ^ ": full join reached") true
        (not (Float.is_nan sizes.((1 lsl n) - 1)));
      match Sys.backend_type with
      | Sys.Native ->
        if allocated <> 0. then
          Alcotest.failf
            "%s: kernel sweep allocated %.0f minor words over %d steps" name
            allocated steps
      | Sys.Bytecode | Sys.Other _ -> () (* bytecode boxes every float *))
    (configs ())

(* The exhaustive enumerator itself: per-mask arrays, one kernel step per
   (subset, table) edge, costs through [Optimizer.Cost.join_into]. A
   warmed-up [optimize_traced] over a 12-table chain allocates only its
   per-call setup and the one plan it returns, far below 0.1 minor words
   per expansion; a plan node per expansion costs about 60. The helper
   domain's words count too: [Gc.minor_words] sees only the calling
   domain's, so the helper's delta is added. *)
let test_dp_alloc_per_expansion () =
  let n = 12 in
  let chain =
    Datagen.Workload.chain ~rows_range:(100, 300) ~distinct_range:(20, 100)
      ~seed:7 ~n_tables:n ()
  in
  let query = chain.Datagen.Workload.query in
  List.iter
    (fun config ->
      let name = Els.Config.name config in
      let profile = Els.prepare config chain.Datagen.Workload.db query in
      ignore (Optimizer.Dp.optimize_traced profile query) (* warmup *);
      let w0 = Gc.minor_words () in
      let w1 = Gc.minor_words () in
      let overhead = w1 -. w0 in
      let helper0 = (Optimizer.Dp.helper_stats ()).Optimizer.Dp.minor_words in
      let w2 = Gc.minor_words () in
      let _, provenance = Optimizer.Dp.optimize_traced profile query in
      let w3 = Gc.minor_words () in
      let helper =
        (Optimizer.Dp.helper_stats ()).Optimizer.Dp.minor_words -. helper0
      in
      let allocated = w3 -. w2 -. overhead +. helper in
      let expansions = provenance.Optimizer.Provenance.expansions in
      let per_expansion = allocated /. float_of_int expansions in
      match Sys.backend_type with
      | Sys.Native ->
        if not (per_expansion < 0.1) then
          Alcotest.failf
            "%s: DP allocated %.0f minor words over %d expansions (%.3f per \
             expansion, want < 0.1)"
            name allocated expansions per_expansion
      | Sys.Bytecode | Sys.Other _ -> () (* bytecode boxes every float *))
    registry_configs

(* --- differential properties --- *)

let prop_kernel_matches_reference =
  QCheck2.Test.make ~count
    ~name:"kernel = list-scan reference (all estimators, all orders)"
    ~print:print_workload gen_workload (fun workload ->
      let db, query, names = build_workload workload in
      List.for_all
        (fun config ->
          tiers_agree (Els.prepare config db query) (permutations names))
        (configs ()))

(* Corrupted catalogs: every corruption kind of the F9 grid on the
   equality and the inequality chain. Under Repair the guard trips while
   the profile is built (the catalog audit repairs the statistics) and
   both tiers estimate from the repaired numbers; under Trap nothing is
   repaired, so guards trip inside the steps — on both tiers, with the
   same unclamped numbers. *)
let test_corrupted_catalogs () =
  let base = Harness.Fault.base_db () in
  let repaired = ref 0 and step_trips = ref 0 in
  let mismatches = ref [] in
  List.iter
    (fun corruption ->
      let db = Harness.Fault.corrupt_db corruption base in
      List.iter
        (fun sql ->
          let query = Sqlfront.Binder.compile_exn db sql in
          List.iter
            (fun strictness ->
              List.iter
                (fun config ->
                  let config = Els.Config.with_strictness strictness config in
                  match Els.prepare_result config db query with
                  | Error _ -> ()
                  | Ok profile ->
                    let violations () =
                      (Els.Profile.guard_stats profile).Els.Guard.violations
                    in
                    if strictness = Els.Config.Repair && violations () > 0 then
                      incr repaired;
                    List.iter
                      (fun order ->
                        let v0 = violations () in
                        let kernel =
                          Els.Incremental.estimate_order profile order
                        in
                        let v1 = violations () in
                        let reference =
                          Els.Incremental.estimate_order_scan profile order
                        in
                        let v2 = violations () in
                        if v1 > v0 then incr step_trips;
                        if
                          not
                            ((v1 > v0) = (v2 > v1)
                            && List.for_all2 Float.equal
                                 (Els.Incremental.history kernel)
                                 (Els.Incremental.history reference))
                        then
                          mismatches :=
                            Printf.sprintf "%s / %s / %s"
                              (Harness.Fault.name corruption)
                              (Els.Config.name config)
                              (String.concat "," order)
                            :: !mismatches)
                      (permutations query.Query.tables))
                (configs ()))
            Els.Config.[ Repair; Trap ])
        [ Harness.Fault.default_sql; Harness.Fault.inequality_sql ])
    Harness.Fault.all;
  Alcotest.(check (list string)) "kernel = reference, same guard trips" []
    !mismatches;
  Alcotest.(check bool) "Repair: corruption tripped the guard" true
    (!repaired > 0);
  Alcotest.(check bool) "Trap: steps tripped the guard" true (!step_trips > 0)

(* Corrupted degree statistics: one column of a 4-table equality chain
   gets NaN, infinite or negative norms, or an L∞ above its L1. Under
   Repair the catalog audit drops them and the degree caps fall back to
   min-rows; under Trap they reach the caps unrepaired, where a NaN norm
   must propagate into the estimate on both tiers alike — the kernel's
   per-predicate terms mark "no term" with a flag, so no corrupted value
   can be mistaken for one. *)
let degree_corruptions =
  let open Stats.Degree in
  [
    ("NaN l2_sq", fun d -> { d with l2_sq = Float.nan });
    ("infinite linf", fun d -> { d with linf = Float.infinity });
    ("NaN linf", fun d -> { d with linf = Float.nan });
    ("negative l1", fun d -> { d with l1 = -.d.l1 });
    ("linf = 10 l1", fun d -> { d with linf = 10. *. d.l1 });
  ]

(* A copy of [db] with [corrupt] applied to the degree statistics of
   [table].[column]. *)
let with_corrupt_degree db ~table ~column corrupt =
  let out = Catalog.Db.create () in
  List.iter
    (fun (t : Catalog.Table.t) ->
      Catalog.Db.add out
        (if not (String.equal t.Catalog.Table.name table) then t
         else
           {
             t with
             Catalog.Table.column_stats =
               List.map
                 (fun (name, (cs : Stats.Col_stats.t)) ->
                   if not (String.equal name column) then (name, cs)
                   else
                     match cs.Stats.Col_stats.degree with
                     | Some d ->
                       ( name,
                         { cs with Stats.Col_stats.degree = Some (corrupt d) }
                       )
                     | None ->
                       Alcotest.failf "%s.%s carries no degree statistics" table
                         column)
                 t.Catalog.Table.column_stats;
           }))
    (Catalog.Db.tables db);
  out

let test_corrupted_degrees () =
  let base, query, names =
    build_chain { dims = [ (6, 3); (9, 2); (5, 4); (8, 2) ]; seed = 19 }
  in
  let mismatches = ref [] and trap_nan = ref 0 in
  List.iter
    (fun (what, corrupt) ->
      let db = with_corrupt_degree base ~table:"t2" ~column:"a" corrupt in
      List.iter
        (fun strictness ->
          List.iter
            (fun est ->
              let config = Els.Config.of_estimator ~strictness est in
              let profile = Els.prepare config db query in
              (* Compiled up front, so each delta counts step trips only. *)
              ignore (Els.Profile.kernel profile : Els.Kernel.t);
              let violations () =
                (Els.Profile.guard_stats profile).Els.Guard.violations
              in
              List.iter
                (fun order ->
                  let v0 = violations () in
                  let kernel = tier_history kernel_tier profile order in
                  let v1 = violations () in
                  let reference = tier_history reference_tier profile order in
                  let v2 = violations () in
                  if
                    strictness = Els.Config.Trap
                    && List.exists Float.is_nan kernel
                  then incr trap_nan;
                  if
                    not
                      (v1 - v0 = v2 - v1
                      && List.length kernel = List.length reference
                      && List.for_all2 Float.equal kernel reference)
                  then
                    mismatches :=
                      Printf.sprintf "%s / %s / %s" what
                        (Els.Config.name config)
                        (String.concat "," order)
                      :: !mismatches)
                (permutations names))
            records)
        Els.Config.[ Repair; Trap ])
    degree_corruptions;
  Alcotest.(check (list string))
    "kernel = reference, same guard trips" [] !mismatches;
  Alcotest.(check bool) "Trap: a NaN norm reached an estimate" true
    (!trap_nan > 0)

(* The DP enumerator runs every step on the kernel; with the same node
   budget the chosen plan's size history must equal the reference tier's
   replay of its join order — for tiny, mid-sized and effectively
   unlimited budgets, and with no budget at all — and a repeated run must
   charge the same expansions and land on the same rung. *)
let prop_kernel_budget_identity =
  QCheck2.Test.make ~count:40
    ~name:"budgeted DP identical on kernel and reference tiers"
    ~print:print_workload gen_workload (fun workload ->
      let db, query, _ = build_workload workload in
      let profile = Els.prepare Els.Config.els db query in
      let replays (node : Optimizer.Dp.node) =
        List.for_all2 Float.equal
          (Els.Incremental.history node.Optimizer.Dp.state)
          (Els.Incremental.history
             (Els.Incremental.estimate_order_scan profile
                (Exec.Plan.join_order node.Optimizer.Dp.plan)))
      in
      replays (Optimizer.Dp.optimize ~methods profile query)
      && List.for_all
           (fun node_budget ->
             let run () =
               let budget = Rel.Budget.create ~node_budget () in
               Optimizer.Dp.optimize_traced ~methods ~budget profile query
             in
             let node, prov = run () in
             let node', prov' = run () in
             replays node
             && Float.equal node.Optimizer.Dp.cost node'.Optimizer.Dp.cost
             && prov.Optimizer.Provenance.rung = prov'.Optimizer.Provenance.rung
             && prov.Optimizer.Provenance.expansions
                = prov'.Optimizer.Provenance.expansions)
           [ 3; 25; 10_000_000 ])

(* Greedy and the random walk extend plans through DP's edge step; with
   the same node budget (or none) the chosen plan's size history must
   equal the reference tier's replay of its join order, whichever rung
   answered, and a repeated run must charge the same expansions, land on
   the same rung and cost the same. *)
let prop_enumerators_budget_identity =
  QCheck2.Test.make ~count:40
    ~name:"budgeted greedy and random walk identical on kernel and reference tiers"
    ~print:print_workload gen_workload (fun workload ->
      let db, query, _ = build_workload workload in
      let profile = Els.prepare Els.Config.els db query in
      let replays (node : Optimizer.Dp.node) =
        List.for_all2 Float.equal
          (Els.Incremental.history node.Optimizer.Dp.state)
          (Els.Incremental.history
             (Els.Incremental.estimate_order_scan profile
                (Exec.Plan.join_order node.Optimizer.Dp.plan)))
      in
      let enumerators =
        [
          Optimizer.Greedy.optimize_traced ~methods;
          Optimizer.Random_walk.optimize_traced ~methods ~seed:3;
        ]
      in
      List.for_all
        (fun optimize ->
          List.for_all
            (fun node_budget ->
              let run () =
                let budget =
                  Option.map
                    (fun node_budget -> Rel.Budget.create ~node_budget ())
                    node_budget
                in
                optimize ?budget profile query
              in
              let node, prov = run () in
              let node', prov' = run () in
              replays node
              && Float.equal node.Optimizer.Dp.cost node'.Optimizer.Dp.cost
              && prov.Optimizer.Provenance.rung
                 = prov'.Optimizer.Provenance.rung
              && prov.Optimizer.Provenance.expansions
                 = prov'.Optimizer.Provenance.expansions)
            [ None; Some 3; Some 25; Some 10_000_000 ])
        enumerators)

(* --- one-selectivity-per-class regression --- *)

(* Triangle query: joining t3 into {t1, t2} has two eligible predicates in
   ONE equivalence class. The grouping must key on Cref.equal and produce a
   single group, so the estimator combines the two selectivities once
   (min/max/product of both) instead of multiplying two singleton groups —
   the failure mode of the old polymorphic-assoc grouping, observable for
   every non-multiplicative rule. *)
let build_triangle () =
  let rng = Datagen.Prng.create 23 in
  let db = Catalog.Db.create () in
  List.iter
    (fun (name, distinct, mult) ->
      ignore
        (Datagen.Tablegen.register (Datagen.Prng.split rng) db ~table:name
           ~rows:(distinct * mult)
           [ Datagen.Tablegen.column "a" ~distinct ]))
    [ ("t1", 8, 2); ("t2", 5, 3); ("t3", 11, 1) ];
  let link a b =
    Query.Predicate.col_eq (Query.Cref.v a "a") (Query.Cref.v b "a")
  in
  ( db,
    Query.make
      ~tables:[ "t1"; "t2"; "t3" ]
      [ link "t1" "t2"; link "t2" "t3"; link "t1" "t3" ] )

let test_one_selectivity_per_class () =
  let db, query = build_triangle () in
  List.iter
    (fun config ->
      let name = Els.Config.name config in
      let profile = Els.prepare config db query in
      let state =
        Els.Incremental.extend profile
          (Els.Incremental.start profile "t1")
          "t2"
      in
      let eligible = Els.Incremental.eligible profile state "t3" in
      Alcotest.(check int)
        (name ^ ": two predicates reach t3")
        2 (List.length eligible);
      let groups = Els.Selectivity.group_by_class profile eligible in
      Alcotest.(check (list int))
        (name ^ ": one class, both members")
        [ 2 ]
        (List.map List.length groups);
      (* The step selectivity is the estimator's single combination of the
         class's two selectivities, on both tiers. *)
      let expected =
        Els.Estimator.fold config.Els.Config.estimator.Els.Estimator.combine
          (List.map (Els.Selectivity.join profile) eligible)
      in
      Alcotest.(check bool)
        (name ^ ": kernel combines once per class")
        true
        (Float.equal expected
           (Els.Incremental.step_selectivity profile state "t3"));
      Alcotest.(check bool)
        (name ^ ": reference combines once per class")
        true
        (Float.equal expected
           (Els.Incremental.step_selectivity_scan profile [ "t1"; "t2" ] "t3")))
    (configs ())

let suite =
  [
    Alcotest.test_case "kernel: panel estimators compile" `Quick
      test_panel_kernels_compile;
    Alcotest.test_case "kernel: custom estimator lowers" `Quick
      test_custom_estimator_lowers;
    Alcotest.test_case "kernel: comparison join lowers" `Quick
      test_comparison_join_lowers;
    Alcotest.test_case "kernel: zero minor words per extend step" `Quick
      test_zero_alloc_per_step;
    Alcotest.test_case "kernel: DP allocation per expansion" `Quick
      test_dp_alloc_per_expansion;
    Alcotest.test_case "kernel: one selectivity per class" `Quick
      test_one_selectivity_per_class;
    Alcotest.test_case "kernel: corrupted catalogs, kernel = reference"
      `Quick test_corrupted_catalogs;
    Alcotest.test_case "kernel: corrupted degree statistics, kernel = reference"
      `Quick test_corrupted_degrees;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_kernel_matches_reference;
        prop_kernel_budget_identity;
        prop_enumerators_budget_identity;
      ]
