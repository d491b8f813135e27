(* Property-based tests (qcheck, registered through qcheck-alcotest).

   The centerpiece is the testable content of the paper's correctness
   proof for Rule LS: on data satisfying the uniformity and containment
   assumptions exactly, the incremental LS estimate equals Equation 3 and
   equals the executed true size, for every join order. *)

let count = 100

(* --- generators --- *)

(* A single-equivalence-class chain: n tables, table i has distinct count
   d_i and every value appears exactly m_i times (rows = d_i * m_i), with
   domains 1..d_i (containment holds exactly). *)
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

let equation3 spec =
  let ds = List.map fst spec.dims in
  let d_min = List.fold_left min max_int ds in
  let rows = List.fold_left (fun acc (d, m) -> acc *. float_of_int (d * m)) 1. spec.dims in
  let denom =
    (* all distinct counts except one occurrence of the smallest *)
    let prod = List.fold_left (fun acc d -> acc *. float_of_int d) 1. ds in
    prod /. float_of_int d_min
  in
  rows /. denom

let rec permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x ->
        let rest = List.filter (fun y -> y <> x) l in
        List.map (fun p -> x :: p) (permutations rest))
      l

let close a b =
  Float.abs (a -. b) <= 1e-6 *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))

(* Theorem (Section 7): Rule LS agrees with Equation 3 and with the true
   size, for every join order. *)
let prop_ls_equals_truth =
  QCheck2.Test.make ~count ~name:"LS = Equation 3 = executed size (all orders)"
    ~print:print_chain_spec gen_chain_spec (fun spec ->
      let db, query, names = build_chain spec in
      let eq3 = equation3 spec in
      let truth =
        float_of_int
          (Exec.Executor.run_query db query).Exec.Executor.row_count
      in
      let profile = Els.prepare Els.Config.els db query in
      close eq3 truth
      && List.for_all
           (fun order -> close (Els.Incremental.final_size profile order) eq3)
           (permutations names))

(* Bushy generalization of the theorem: every binary bracketing of the
   tables (built with join_states) yields the Equation 3 size under LS. *)
let rec bracketings profile = function
  | [] -> []
  | [ t ] -> [ Els.Incremental.start profile t ]
  | tables ->
    (* Split at each point; to bound the blow-up only the first two split
       positions are explored per level. *)
    let n = List.length tables in
    List.concat_map
      (fun k ->
        let left = List.filteri (fun i _ -> i < k) tables in
        let right = List.filteri (fun i _ -> i >= k) tables in
        List.concat_map
          (fun ls ->
            List.map
              (fun rs -> Els.Incremental.join_states profile ls rs)
              (bracketings profile right))
          (bracketings profile left))
      (List.filteri (fun i _ -> i < 2) (List.init (n - 1) (fun i -> i + 1)))

let prop_ls_bushy =
  QCheck2.Test.make ~count:60 ~name:"LS bushy bracketings = Equation 3"
    ~print:print_chain_spec gen_chain_spec (fun spec ->
      let db, query, names = build_chain spec in
      let eq3 = equation3 spec in
      let profile = Els.prepare Els.Config.els db query in
      List.for_all
        (fun st -> close st.Els.Incremental.size eq3)
        (bracketings profile names))

(* Rule M's and Rule SS's estimates never exceed Rule LS's. *)
let prop_rule_ordering =
  QCheck2.Test.make ~count ~name:"est_M <= est_SS <= est_LS"
    ~print:print_chain_spec gen_chain_spec (fun spec ->
      let db, query, names = build_chain spec in
      let est config =
        Els.estimate config db query names
      in
      let m = est (Els.Config.sm ~ptc:true)
      and ss = est Els.Config.sss
      and ls = est Els.Config.els in
      m <= ss +. 1e-9 && ss <= ls +. 1e-9)

(* Closure soundness: every derived predicate holds on every tuple of the
   executed join result. *)
let prop_closure_sound =
  QCheck2.Test.make ~count:40 ~name:"closure is sound on executed data"
    ~print:print_chain_spec gen_chain_spec (fun spec ->
      let db, query, _ = build_chain spec in
      let closed = Els.Closure.close_query query in
      let result = Exec.Executor.run_query db query in
      let schema = Rel.Relation.schema result.Exec.Executor.relation in
      List.for_all
        (fun p ->
          let holds = Query.Eval.compile schema p in
          Rel.Relation.fold
            (fun acc tuple -> acc && holds tuple)
            true result.Exec.Executor.relation)
        closed.Query.predicates)

(* The three join algorithms produce identical multisets of rows. *)
let gen_join_inputs =
  QCheck2.Gen.(
    let value = int_range 1 8 in
    let* left = list_size (int_range 0 30) value in
    let* right = list_size (int_range 0 30) value in
    return (left, right))

let prop_join_methods_agree =
  QCheck2.Test.make ~count ~name:"NL = HJ = SMJ on random bags"
    ~print:(fun (l, r) ->
      Printf.sprintf "left=[%s] right=[%s]"
        (String.concat ";" (List.map string_of_int l))
        (String.concat ";" (List.map string_of_int r)))
    gen_join_inputs
    (fun (left, right) ->
      let rel table vals =
        Rel.Relation.of_tuples
          (Rel.Schema.make
             [ Rel.Schema.column ~table ~name:"a" Rel.Value.Ty_int ])
          (List.map (fun v -> [| Rel.Value.Int v |]) vals)
      in
      let r = rel "r" left and s = rel "s" right in
      let pred =
        Query.Predicate.col_eq (Query.Cref.v "r" "a") (Query.Cref.v "s" "a")
      in
      let rows op =
        List.sort compare
          (List.map Array.to_list
             (Rel.Relation.to_list (Exec.Operator.to_relation op)))
      in
      let counters = Exec.Counters.create () in
      let nl =
        rows
          (Exec.Nested_loop.join counters [ pred ]
             ~outer:(Exec.Operator.of_relation r)
             ~inner_schema:(Rel.Relation.schema s)
             ~make_inner:(fun () -> Exec.Operator.of_relation s))
      in
      let hj =
        rows
          (Exec.Hash_join.join counters [ pred ]
             ~outer:(Exec.Operator.of_relation r)
             ~inner:(Exec.Operator.of_relation s))
      in
      let sm =
        rows
          (Exec.Sort_merge.join counters [ pred ]
             ~outer:(Exec.Operator.of_relation r)
             ~inner:(Exec.Operator.of_relation s))
      in
      nl = hj && hj = sm)

(* Urn model bounds: 0 <= E <= min(urns, balls), and monotonicity. *)
let prop_urn_bounds =
  QCheck2.Test.make ~count:500 ~name:"urn: 0 <= E <= min(n, k), monotone"
    ~print:(fun (n, k) -> Printf.sprintf "n=%d k=%d" n k)
    QCheck2.Gen.(pair (int_range 1 1_000_000) (int_range 1 1_000_000))
    (fun (n, k) ->
      let e = Stats.Urn.expected_distinct ~urns:(float_of_int n) ~balls:(float_of_int k) in
      let e_fewer =
        Stats.Urn.expected_distinct ~urns:(float_of_int n)
          ~balls:(float_of_int (max 1 (k / 2)))
      in
      e >= 0.
      && e <= float_of_int (min n k) +. 1e-6
      && e_fewer <= e +. 1e-9)

(* Selectivity estimates always land in [0, 1]. *)
let gen_sel_case =
  QCheck2.Gen.(
    let* d = int_range 1 1000 in
    let* lo = int_range (-100) 100 in
    let* width = int_range 0 1000 in
    let* c = int_range (-300) 1300 in
    let* op = oneofl Rel.Cmp.[ Eq; Ne; Lt; Le; Gt; Ge ] in
    return (d, lo, lo + width, c, op))

let prop_selectivity_in_unit =
  QCheck2.Test.make ~count:500 ~name:"selectivity estimates in [0,1]"
    ~print:(fun (d, lo, hi, c, op) ->
      Printf.sprintf "d=%d lo=%d hi=%d c=%d op=%s" d lo hi c
        (Rel.Cmp.to_string op))
    gen_sel_case
    (fun (d, lo, hi, c, op) ->
      let stats =
        Stats.Col_stats.with_bounds ~distinct:d ~lo:(Rel.Value.Int lo)
          ~hi:(Rel.Value.Int hi)
      in
      let s = Stats.Selectivity_est.comparison stats op (Rel.Value.Int c) in
      s >= 0. && s <= 1.)

(* Combining local predicates never yields a selectivity outside [0,1],
   and adding predicates never increases it. *)
let gen_local_preds =
  QCheck2.Gen.(
    list_size (int_range 1 5)
      (pair (oneofl Rel.Cmp.[ Eq; Ne; Lt; Le; Gt; Ge ]) (int_range 1 100)))

let prop_combine_monotone =
  QCheck2.Test.make ~count:500
    ~name:"local predicate combination: bounded and monotone"
    ~print:(fun preds ->
      String.concat " AND "
        (List.map
           (fun (op, c) -> Printf.sprintf "x %s %d" (Rel.Cmp.to_string op) c)
           preds))
    gen_local_preds
    (fun preds ->
      let stats =
        Stats.Col_stats.with_bounds ~distinct:100 ~lo:(Rel.Value.Int 1)
          ~hi:(Rel.Value.Int 100)
      in
      let preds = List.map (fun (op, c) -> (op, Rel.Value.Int c)) preds in
      let combined = Els.Local_pred.combine stats preds in
      let s = combined.Els.Local_pred.selectivity in
      let rec prefixes acc = function
        | [] -> [ List.rev acc ]
        | p :: rest -> List.rev acc :: prefixes (p :: acc) rest
      in
      let monotone =
        List.for_all
          (fun prefix ->
            (Els.Local_pred.combine stats prefix).Els.Local_pred.selectivity
            >= s -. 1e-9)
          (prefixes [] preds)
      in
      s >= 0. && s <= 1. && monotone)

(* Closure is idempotent and only grows the predicate set. *)
let gen_predicates =
  QCheck2.Gen.(
    let cref =
      let* t = int_range 1 3 in
      let* c = int_range 1 3 in
      return (Query.Cref.v (Printf.sprintf "t%d" t) (Printf.sprintf "c%d" c))
    in
    list_size (int_range 1 6)
      (oneof
         [
           (let* a = cref in
            let* b = cref in
            return
              (if Query.Cref.equal a b then
                 Query.Predicate.cmp a Rel.Cmp.Eq (Rel.Value.Int 1)
               else Query.Predicate.col_eq a b));
           (let* a = cref in
            let* op = oneofl Rel.Cmp.[ Eq; Lt; Gt ] in
            let* c = int_range 1 50 in
            return (Query.Predicate.cmp a op (Rel.Value.Int c)));
         ]))

let prop_closure_idempotent =
  QCheck2.Test.make ~count:300 ~name:"closure idempotent and extensive"
    ~print:(fun preds ->
      String.concat " AND " (List.map Query.Predicate.to_string preds))
    gen_predicates
    (fun preds ->
      let once = (Els.Closure.compute preds).Els.Closure.predicates in
      let twice = (Els.Closure.compute once).Els.Closure.predicates in
      let module PS = Query.Predicate.Set in
      PS.equal (PS.of_list once) (PS.of_list twice)
      && PS.subset (PS.of_list preds) (PS.of_list once))

(* Prng.shuffle produces a permutation. *)
let prop_shuffle_permutes =
  QCheck2.Test.make ~count:200 ~name:"shuffle is a permutation"
    ~print:(fun (seed, n) -> Printf.sprintf "seed=%d n=%d" seed n)
    QCheck2.Gen.(pair (int_range 0 1000) (int_range 0 200))
    (fun (seed, n) ->
      let rng = Datagen.Prng.create seed in
      let arr = Array.init n Fun.id in
      Datagen.Prng.shuffle rng arr;
      let sorted = Array.copy arr in
      Array.sort Int.compare sorted;
      sorted = Array.init n Fun.id)

(* CSV round-trip: relations of ints, floats, bools, non-numeric strings
   and NULLs survive to_string / relation_of_string unchanged. *)
let gen_csv_relation =
  QCheck2.Gen.(
    let value ty =
      let* null = int_range 0 9 in
      if null = 0 then return Rel.Value.Null
      else
        match ty with
        | `I ->
          let* n = int_range (-1000) 1000 in
          return (Rel.Value.Int n)
        | `B ->
          let* b = bool in
          return (Rel.Value.Bool b)
        | `S ->
          (* Strings that cannot be mistaken for numbers or booleans,
             exercising quoting. *)
          let* tag = int_range 0 999 in
          let* tricky = oneofl [ ""; ","; "\""; "\n"; "x y" ] in
          return (Rel.Value.String (Printf.sprintf "s%d%s" tag tricky))
    in
    let* tys = list_size (int_range 1 4) (oneofl [ `I; `B; `S ]) in
    let* rows = list_size (int_range 0 20) (flatten_l (List.map value tys)) in
    return (tys, rows))

let prop_csv_roundtrip =
  QCheck2.Test.make ~count:200 ~name:"CSV round-trip"
    ~print:(fun (tys, rows) ->
      Printf.sprintf "%d cols, %d rows" (List.length tys) (List.length rows))
    gen_csv_relation
    (fun (tys, rows) ->
      let schema =
        Rel.Schema.make
          (List.mapi
             (fun i ty ->
               Rel.Schema.column ~table:"t"
                 ~name:(Printf.sprintf "c%d" i)
                 (match ty with
                 | `I -> Rel.Value.Ty_int
                 | `B -> Rel.Value.Ty_bool
                 | `S -> Rel.Value.Ty_string))
             tys)
      in
      let rel =
        Rel.Relation.of_tuples schema (List.map Array.of_list rows)
      in
      let back =
        Rel.Csv.relation_of_string ~table:"t" (Rel.Csv.to_string rel)
      in
      Rel.Relation.cardinality back = Rel.Relation.cardinality rel
      && List.for_all2 Rel.Tuple.equal (Rel.Relation.to_list rel)
           (Rel.Relation.to_list back))

(* Profile invariants on random chain queries with a local predicate:
   effective rows and cardinalities are bounded by their base values, and
   every rule's estimate is bounded by the filtered cartesian product. *)
let gen_profiled_spec =
  QCheck2.Gen.(
    let* spec = gen_chain_spec in
    let* cutoff = int_range 1 12 in
    return (spec, cutoff))

let prop_profile_invariants =
  QCheck2.Test.make ~count:200 ~name:"profile invariants"
    ~print:(fun (spec, cutoff) ->
      Printf.sprintf "%s cutoff=%d" (print_chain_spec spec) cutoff)
    gen_profiled_spec
    (fun (spec, cutoff) ->
      let db, query, names = build_chain spec in
      let query =
        Query.with_predicates query
          (Query.Predicate.cmp
             (Query.Cref.v (List.hd names) "a")
             Rel.Cmp.Le (Rel.Value.Int cutoff)
          :: query.Query.predicates)
      in
      List.for_all
        (fun config ->
          let profile = Els.prepare config db query in
          let tables_ok =
            List.for_all
              (fun name ->
                let tp = Els.Profile.table profile name in
                tp.Els.Profile.rows >= 0.
                && tp.Els.Profile.rows <= tp.Els.Profile.base_rows +. 1e-9
                && Query.Cref.Map.for_all
                     (fun _ col ->
                       col.Els.Profile.join_distinct >= 0.
                       && col.Els.Profile.join_distinct
                          <= col.Els.Profile.base_distinct +. 1e-9)
                     tp.Els.Profile.columns)
              names
          in
          let cartesian_bound =
            List.fold_left
              (fun acc name ->
                acc *. (Els.Profile.table profile name).Els.Profile.rows)
              1. names
          in
          tables_ok
          && Els.Incremental.final_size profile names
             <= cartesian_bound +. 1e-6)
        (Els.Config.panel ()))

(* Rule M never depends on the join order: every predicate of the working
   conjunction is counted exactly once by the time the order completes, so
   all permutations agree on the final estimate (Section 3 — Rule M is
   consistently wrong rather than order-sensitive). *)
let prop_rule_m_order_invariant =
  QCheck2.Test.make ~count ~name:"rule M final estimate is order-invariant"
    ~print:print_chain_spec gen_chain_spec (fun spec ->
      let db, query, names = build_chain spec in
      let profile = Els.prepare (Els.Config.sm ~ptc:true) db query in
      match permutations names with
      | [] -> true
      | first :: rest ->
        let reference = Els.Incremental.final_size profile first in
        List.for_all
          (fun order ->
            close (Els.Incremental.final_size profile order) reference)
          rest)

(* Rule LS structure: at every step of every order, the eligible
   predicates partition into equivalence-class groups (pairwise-distinct
   roots, within-group shared root, sizes summing to the eligible count)
   and the step selectivity is exactly one selectivity — the largest —
   per class, multiplied across classes. *)
let prop_ls_one_selectivity_per_class =
  QCheck2.Test.make ~count
    ~name:"rule LS: one selectivity per equivalence class per step"
    ~print:print_chain_spec gen_chain_spec (fun spec ->
      let db, query, names = build_chain spec in
      let profile = Els.prepare Els.Config.els db query in
      let root p =
        match Query.Predicate.columns p with
        | col :: _ -> Els.Eqclass.find profile.Els.Profile.classes col
        | [] -> assert false
      in
      let step_ok st name =
        let elig = Els.Incremental.eligible profile st name in
        let groups = Els.Selectivity.group_by_class profile elig in
        let partition_ok =
          List.length elig
          = List.fold_left (fun acc g -> acc + List.length g) 0 groups
          && List.for_all
               (fun g ->
                 match g with
                 | [] -> false
                 | p :: rest ->
                   List.for_all
                     (fun q -> Query.Cref.equal (root p) (root q))
                     rest)
               groups
          &&
          let roots = List.map (fun g -> root (List.hd g)) groups in
          List.length (List.sort_uniq Query.Cref.compare roots)
          = List.length roots
        in
        let one_per_class =
          List.fold_left
            (fun acc g ->
              acc
              *. List.fold_left
                   (fun m p -> Float.max m (Els.Selectivity.join profile p))
                   0. g)
            1. groups
        in
        partition_ok
        && close (Els.Incremental.step_selectivity profile st name) one_per_class
      in
      List.for_all
        (fun order ->
          match order with
          | [] -> true
          | first :: rest ->
            let _, ok =
              List.fold_left
                (fun (st, ok) name ->
                  ( Els.Incremental.extend profile st name,
                    ok && step_ok st name ))
                (Els.Incremental.start profile first, true)
                rest
            in
            ok)
        (permutations names))

(* The compiled kernel agrees with the list-scan reference tier: the
   kernel, which evaluates every join selectivity once at compile time,
   and the reference tier, which recomputes each one from the statistics
   at every step, produce bit-identical sizes at every step of every
   order, under every registered estimator's canonical configuration.
   (The name predates the kernel; it is kept so test lists stay
   comparable across versions.) *)
let prop_cache_transparent =
  QCheck2.Test.make ~count ~name:"memo cache is bit-identical to uncached"
    ~print:print_chain_spec gen_chain_spec (fun spec ->
      let db, query, names = build_chain spec in
      List.for_all
        (fun config ->
          let profile = Els.prepare config db query in
          List.for_all
            (fun order ->
              let a = Els.Incremental.estimate_order profile order in
              let b = Els.Incremental.estimate_order_scan profile order in
              Float.equal a.Els.Incremental.size b.Els.Incremental.size
              && List.for_all2 Float.equal (Els.Incremental.history a)
                   (Els.Incremental.history b))
            (permutations names))
        (Els.Config.panel ()))

(* Differential: the kernel path (the per-table eligibility index and
   the compiled kernel) returns exactly the same eligible predicates
   (same order) and bit-identical step selectivities as the list-scan
   reference tier, for every registered estimator. (The name predates
   the kernel; it is kept so test lists stay comparable across
   versions.) *)
let prop_index_matches_scan =
  QCheck2.Test.make ~count ~name:"indexed hot path = list-scan baseline"
    ~print:print_chain_spec gen_chain_spec (fun spec ->
      let db, query, names = build_chain spec in
      List.for_all
        (fun config ->
          let profile = Els.prepare config db query in
          List.for_all
            (fun order ->
              match order with
              | [] -> true
              | first :: rest ->
                let _, ok =
                  List.fold_left
                    (fun (st, ok) name ->
                      let joined = Els.Incremental.joined profile st in
                      let agree =
                        List.equal Query.Predicate.equal
                          (Els.Incremental.eligible profile st name)
                          (Els.Incremental.eligible_scan profile joined name)
                        && Float.equal
                             (Els.Incremental.step_selectivity profile st name)
                             (Els.Incremental.step_selectivity_scan profile
                                joined name)
                      in
                      (Els.Incremental.extend profile st name, ok && agree))
                    (Els.Incremental.start profile first, true)
                    rest
                in
                ok)
            (permutations names))
        (Els.Config.panel ()))

(* Key-join chains: every value appears exactly once per table
   (multiplicity 1), so each table's join column is a key and each step's
   true size is the running minimum of the distinct counts. On such data
   the pessimistic estimator's per-step cap min(|R1|', |R2|') is exact
   and Rule LS never exceeds it; with multiplicity > 1 this ordering can
   fail (min of row counts is not an output bound in general), which is
   why the property is stated on key joins only — matching the scope of
   the degree-1 Lp-norm bound PESS implements. *)
let gen_key_chain_spec =
  QCheck2.Gen.(
    let* n = int_range 2 4 in
    let* dims = list_repeat n (map (fun d -> (d, 1)) (int_range 2 12)) in
    let* seed = int_range 0 10000 in
    return { dims; seed })

let prop_pess_bounds_ls_on_key_joins =
  QCheck2.Test.make ~count
    ~name:"PESS >= LS at every step on key-join chains"
    ~print:print_chain_spec gen_key_chain_spec (fun spec ->
      let db, query, names = build_chain spec in
      List.for_all
        (fun order ->
          let ls = Els.intermediate_sizes Els.Config.els db query order in
          let pess = Els.intermediate_sizes Els.Config.pess db query order in
          List.for_all2
            (fun p l -> p >= l -. (1e-9 *. Float.abs l))
            pess ls)
        (permutations names))

(* Cost model sanity: each join cost is monotone in the outer cardinality
   and non-negative. *)
let prop_cost_monotone =
  QCheck2.Test.make ~count:300 ~name:"join costs monotone in outer rows"
    ~print:(fun (o, i, r) -> Printf.sprintf "o=%g i=%g r=%g" o i r)
    QCheck2.Gen.(
      let pos = map float_of_int (int_range 0 100000) in
      triple pos pos pos)
    (fun (o, i, r) ->
      let r = Float.min r i in
      let bigger = o +. 17. in
      let checks =
        [
          ( Optimizer.Cost.nested_loop ~outer_rows:o ~inner_base_rows:i
              ~out_rows:0.,
            Optimizer.Cost.nested_loop ~outer_rows:bigger ~inner_base_rows:i
              ~out_rows:0. );
          ( Optimizer.Cost.sort_merge ~outer_rows:o ~inner_base_rows:i
              ~inner_rows:r ~out_rows:0.,
            Optimizer.Cost.sort_merge ~outer_rows:bigger ~inner_base_rows:i
              ~inner_rows:r ~out_rows:0. );
          ( Optimizer.Cost.hash ~outer_rows:o ~inner_base_rows:i ~inner_rows:r
              ~out_rows:0.,
            Optimizer.Cost.hash ~outer_rows:bigger ~inner_base_rows:i
              ~inner_rows:r ~out_rows:0. );
          ( Optimizer.Cost.index_nested_loop ~outer_rows:o ~inner_base_rows:i
              ~out_rows:0.,
            Optimizer.Cost.index_nested_loop ~outer_rows:bigger
              ~inner_base_rows:i ~out_rows:0. );
        ]
      in
      List.for_all (fun (small, big) -> small >= 0. && small <= big +. 1e-9) checks)

(* --- comparison joins --------------------------------------------------- *)

type cmp_op = Op_lt | Op_le | Op_gt | Op_ge | Op_band of float

let comparison_of_op = function
  | Op_lt -> Query.Predicate.Lt
  | Op_le -> Query.Predicate.Le
  | Op_gt -> Query.Predicate.Gt
  | Op_ge -> Query.Predicate.Ge
  | Op_band eps -> Query.Predicate.Band eps

let op_to_string = function
  | Op_lt -> "<"
  | Op_le -> "<="
  | Op_gt -> ">"
  | Op_ge -> ">="
  | Op_band eps -> Printf.sprintf "band(%g)" eps

(* Random bags with the odd NULL, each side independently int- or
   float-typed (so cross-type comparisons are exercised): the generalized
   sort-merge must produce exactly the rows the nested-loop oracle does,
   for every comparison operator including bands. *)
let gen_comparison_inputs =
  QCheck2.Gen.(
    let side =
      let* is_float = bool in
      let value =
        frequency
          [
            ( 9,
              if is_float then
                map
                  (fun v -> Rel.Value.Float (float_of_int v /. 2.))
                  (int_range 1 24)
              else map (fun v -> Rel.Value.Int v) (int_range 1 12) );
            (1, return Rel.Value.Null);
          ]
      in
      let* vals = list_size (int_range 0 25) value in
      return (is_float, vals)
    in
    let* left = side in
    let* right = side in
    let* op =
      oneofl [ Op_lt; Op_le; Op_gt; Op_ge; Op_band 0.; Op_band 2.5 ]
    in
    return (left, right, op))

let print_comparison_inputs ((_, left), (_, right), op) =
  Printf.sprintf "op=%s left=[%s] right=[%s]" (op_to_string op)
    (String.concat ";" (List.map Rel.Value.to_string left))
    (String.concat ";" (List.map Rel.Value.to_string right))

let prop_comparison_sort_merge_oracle =
  QCheck2.Test.make ~count ~name:"comparison SMJ = NL oracle on random bags"
    ~print:print_comparison_inputs gen_comparison_inputs
    (fun ((lfloat, left), (rfloat, right), op) ->
      let rel table is_float vals =
        let ty = if is_float then Rel.Value.Ty_float else Rel.Value.Ty_int in
        Rel.Relation.of_tuples
          (Rel.Schema.make [ Rel.Schema.column ~table ~name:"a" ty ])
          (List.map (fun v -> [| v |]) vals)
      in
      let r = rel "r" lfloat left and s = rel "s" rfloat right in
      let pred =
        Query.Predicate.col_cmp (Query.Cref.v "r" "a") (comparison_of_op op)
          (Query.Cref.v "s" "a")
      in
      let rows op_ =
        List.sort compare
          (List.map Array.to_list
             (Rel.Relation.to_list (Exec.Operator.to_relation op_)))
      in
      let counters = Exec.Counters.create () in
      let nl =
        rows
          (Exec.Nested_loop.join counters [ pred ]
             ~outer:(Exec.Operator.of_relation r)
             ~inner_schema:(Rel.Relation.schema s)
             ~make_inner:(fun () -> Exec.Operator.of_relation s))
      in
      let sm =
        rows
          (Exec.Sort_merge.join counters [ pred ]
             ~outer:(Exec.Operator.of_relation r)
             ~inner:(Exec.Operator.of_relation s))
      in
      nl = sm)

(* Convolution selectivities stay probabilities whatever the statistics —
   with histograms, with bare min/max bounds, or with none at all. *)
let gen_conv_inputs =
  QCheck2.Gen.(
    let* lvals = list_size (int_range 0 40) (int_range ~-20 50) in
    let* rvals = list_size (int_range 0 40) (int_range ~-20 50) in
    let* lhist = bool in
    let* rhist = bool in
    let* op = oneofl [ Op_lt; Op_le; Op_gt; Op_ge; Op_band 3. ] in
    return (lvals, rvals, lhist, rhist, op))

let stats_of_ints ~histogram vals =
  let arr = Array.of_list (List.map (fun v -> Rel.Value.Int v) vals) in
  if histogram then
    Stats.Col_stats.of_values ~histogram:Stats.Histogram.Equi_depth
      ~histogram_buckets:8 arr
  else Stats.Col_stats.of_values arr

let prop_convolution_in_unit =
  QCheck2.Test.make ~count:300
    ~name:"join_comparison/join_band in [0,1] for any statistics"
    ~print:(fun (l, r, lh, rh, op) ->
      Printf.sprintf "op=%s lhist=%b rhist=%b |l|=%d |r|=%d" (op_to_string op)
        lh rh (List.length l) (List.length r))
    gen_conv_inputs
    (fun (lvals, rvals, lhist, rhist, op) ->
      let left = stats_of_ints ~histogram:lhist lvals in
      let right = stats_of_ints ~histogram:rhist rvals in
      let s, _sources =
        match op with
        | Op_band eps -> Stats.Selectivity_est.join_band left ~eps right
        | Op_lt -> Stats.Selectivity_est.join_comparison left Rel.Cmp.Lt right
        | Op_le -> Stats.Selectivity_est.join_comparison left Rel.Cmp.Le right
        | Op_gt -> Stats.Selectivity_est.join_comparison left Rel.Cmp.Gt right
        | Op_ge -> Stats.Selectivity_est.join_comparison left Rel.Cmp.Ge right
      in
      Float.is_finite s && s >= 0. && s <= 1.)

(* On point-mass histograms (every bucket a single value) the convolution
   has no interpolation left to do: it must equal the exact pair-counting
   probability. *)
let point_stats vals =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun v ->
      Hashtbl.replace tbl v
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl v)))
    vals;
  let entries =
    List.sort compare (Hashtbl.fold (fun v c acc -> (v, c) :: acc) tbl [])
  in
  let buckets =
    List.map
      (fun (v, c) ->
        { Stats.Histogram.lo = float_of_int v; hi = float_of_int v;
          count = float_of_int c; distinct = 1. })
      entries
  in
  {
    Stats.Col_stats.distinct = List.length entries;
    nulls = 0;
    min_value = Some (Rel.Value.Int (fst (List.hd entries)));
    max_value = Some (Rel.Value.Int (fst (List.nth entries (List.length entries - 1))));
    histogram = Some (Stats.Histogram.of_buckets Stats.Histogram.Equi_width buckets);
    mcv = None;
    distinct_sketch = None;
    degree = None;
  }

let exact_probability lvals rvals test =
  let pairs = List.length lvals * List.length rvals in
  let hits =
    List.fold_left
      (fun acc a ->
        List.fold_left
          (fun acc b -> if test a b then acc + 1 else acc)
          acc rvals)
      0 lvals
  in
  float_of_int hits /. float_of_int pairs

let prop_convolution_point_mass_exact =
  QCheck2.Test.make ~count:300
    ~name:"convolution exact on point-mass histograms"
    ~print:(fun (l, r, op) ->
      Printf.sprintf "op=%s left=[%s] right=[%s]" (op_to_string op)
        (String.concat ";" (List.map string_of_int l))
        (String.concat ";" (List.map string_of_int r)))
    QCheck2.Gen.(
      let vals = list_size (int_range 1 30) (int_range 1 15) in
      triple vals vals (oneofl [ Op_lt; Op_le; Op_gt; Op_ge; Op_band 2. ]))
    (fun (lvals, rvals, op) ->
      let left = point_stats lvals and right = point_stats rvals in
      let (estimated, _sources), expected =
        match op with
        | Op_lt ->
          ( Stats.Selectivity_est.join_comparison left Rel.Cmp.Lt right,
            exact_probability lvals rvals (fun a b -> a < b) )
        | Op_le ->
          ( Stats.Selectivity_est.join_comparison left Rel.Cmp.Le right,
            exact_probability lvals rvals (fun a b -> a <= b) )
        | Op_gt ->
          ( Stats.Selectivity_est.join_comparison left Rel.Cmp.Gt right,
            exact_probability lvals rvals (fun a b -> a > b) )
        | Op_ge ->
          ( Stats.Selectivity_est.join_comparison left Rel.Cmp.Ge right,
            exact_probability lvals rvals (fun a b -> a >= b) )
        | Op_band eps ->
          ( Stats.Selectivity_est.join_band left ~eps right,
            exact_probability lvals rvals (fun a b ->
                Float.abs (float_of_int a -. float_of_int b) <= eps) )
      in
      Float.abs (estimated -. expected) <= 1e-9)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_ls_equals_truth;
      prop_rule_ordering;
      prop_closure_sound;
      prop_join_methods_agree;
      prop_urn_bounds;
      prop_selectivity_in_unit;
      prop_combine_monotone;
      prop_closure_idempotent;
      prop_shuffle_permutes;
      prop_csv_roundtrip;
      prop_profile_invariants;
      prop_cost_monotone;
      prop_ls_bushy;
      prop_rule_m_order_invariant;
      prop_ls_one_selectivity_per_class;
      prop_cache_transparent;
      prop_index_matches_scan;
      prop_pess_bounds_ls_on_key_joins;
      prop_comparison_sort_merge_oracle;
      prop_convolution_in_unit;
      prop_convolution_point_mass_exact;
    ]
