type scenario = { name : string; db : Catalog.Db.t; query : Query.t }

type row = {
  scenario : string;
  predicate : string;
  estimator : string;
  sizes : float list;
  estimate : float;
  truth : float;
  q : Accuracy.q_error;
}

let of_spec name spec =
  { name; db = spec.Datagen.Workload.db; query = spec.Datagen.Workload.query }

let section8 ~scale ~seed =
  {
    name = "section8";
    db = Datagen.Section8.build ~scale ~seed ();
    query = Datagen.Section8.query_scaled ~scale;
  }

let f10 ~scale ~seed = [ section8 ~scale ~seed ]

(* One generated workload per comparison shape: a pure inequality join, a
   band join, and a mixed chain (equality link then inequality link). All
   use integer join columns with domains starting at 1, so the comparison
   always overlaps and the executed truth is positive. *)
let f14 ~seed =
  [
    of_spec "lt" (Datagen.Workload.comparison ~seed ~n_tables:2 ());
    of_spec "ge"
      (Datagen.Workload.comparison ~op:Query.Predicate.Ge ~seed:(seed + 1)
         ~n_tables:2 ());
    of_spec "band"
      (Datagen.Workload.comparison
         ~op:(Query.Predicate.Band 2.5)
         ~seed:(seed + 2) ~n_tables:2 ());
    of_spec "mixed"
      (Datagen.Workload.comparison ~seed:(seed + 3) ~n_tables:3 ());
  ]

(* Three families where the degree-statistics estimators differ:
   - a key-join chain (distinct = rows): every degree is 1, so the
     Lp-norm caps coincide with min-rows and bound the truth tightly;
   - a skewed star (Zipf fact keys): heavy hitters break the uniform
     model, which is what the tracked top-k degrees and the L2/L∞ norms
     see;
   - the paper's Section 8 workload, for continuity with T1/F10.
   Key domains are contained and the Section 8 restriction keeps at least
   one row at every scale, so every truth is positive. *)
let f16 ~scale ~seed =
  [
    of_spec "key-chain"
      (Datagen.Workload.chain ~rows_range:(200, 800)
         ~distinct_range:(10_000, 10_000) ~seed ~n_tables:3 ());
    of_spec "skew-star"
      (Datagen.Workload.star ~fact_rows:2000 ~dim_rows_range:(50, 200)
         ~distinct_range:(20, 50)
         ~distribution:(Datagen.Distribution.Zipf 1.2)
         ~seed:(seed + 1) ~n_dims:2 ());
    section8 ~scale ~seed:(seed + 2);
  ]

let join_predicate_string query =
  String.concat " AND "
    (List.filter_map
       (fun p ->
         if Query.Predicate.is_join p then Some (Query.Predicate.to_string p)
         else None)
       query.Query.predicates)

let run scenarios =
  List.concat_map
    (fun { name; db; query } ->
      let truth =
        float_of_int (Exec.Executor.run_query db query).Exec.Executor.row_count
      in
      let predicate = join_predicate_string query in
      List.map
        (fun est ->
          let profile = Els.prepare (Els.Config.of_estimator est) db query in
          let state =
            Els.Incremental.estimate_order profile query.Query.tables
          in
          let estimate = state.Els.Incremental.size in
          {
            scenario = name;
            predicate;
            estimator = Els.Estimator.label est;
            sizes = Els.Incremental.history state;
            estimate;
            truth;
            q = Accuracy.q_error ~est:estimate ~truth;
          })
        (Els.Estimator.registry ()))
    scenarios

let pass rows =
  rows <> []
  && List.for_all
       (fun r -> match r.q with Accuracy.Finite _ -> true | _ -> false)
       rows

let q_cell = function
  | Accuracy.Finite q -> Report.float_cell q
  | Accuracy.Infinite -> "inf"
  | Accuracy.Undefined -> "undef"

let render rows =
  Report.table
    ~header:
      [ "Scenario"; "Join Predicate"; "Estimator"; "Estimated Sizes"; "True";
        "q-error" ]
    (List.map
       (fun r ->
         [
           r.scenario;
           r.predicate;
           r.estimator;
           Report.size_list r.sizes;
           Report.float_cell r.truth;
           q_cell r.q;
         ])
       rows)
