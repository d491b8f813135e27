type summary = {
  algorithm : string;
  queries : int;
  median_q : float;
  p90_q : float;
  max_q : float;
  underestimated : float;
  infinite : int;
  undefined : int;
}

(* One chain and one star specimen per seed; chains get a ~25% local range
   predicate on the first table's join column. *)
let workloads seed =
  let chain =
    Datagen.Workload.chain ~rows_range:(100, 400) ~distinct_range:(20, 120)
      ~seed ~n_tables:4 ()
  in
  let chain_db = chain.Datagen.Workload.db in
  let chain_query =
    let t1 = List.hd chain.Datagen.Workload.query.Query.tables in
    let d = Catalog.Table.distinct (Catalog.Db.find_exn chain_db t1) "a" in
    Query.with_predicates chain.Datagen.Workload.query
      (Query.Predicate.cmp (Query.Cref.v t1 "a") Rel.Cmp.Le
         (Rel.Value.Int (max 1 (d / 4)))
      :: chain.Datagen.Workload.query.Query.predicates)
  in
  let star =
    (* Keep dimension fan-outs small so the true star result stays
       executable across many seeds. *)
    Datagen.Workload.star ~fact_rows:1000 ~dim_rows_range:(50, 150)
      ~distinct_range:(30, 100) ~seed ~n_dims:3 ()
  in
  [
    Panel.of_spec (Printf.sprintf "chain/%d" seed)
      { chain with Datagen.Workload.query = chain_query };
    Panel.of_spec (Printf.sprintf "star/%d" seed) star;
  ]

let percentile sorted p =
  match sorted with
  | [||] -> nan
  | arr ->
    let n = Array.length arr in
    let idx = int_of_float (Float.round (p *. float_of_int (n - 1))) in
    arr.(max 0 (min (n - 1) idx))

(* One summary per registered estimator, each under its canonical
   configuration (every built-in closes the predicate set, so the study
   compares combining rules, not the PTC rewrite). *)
let run ?(seeds = List.init 8 (fun i -> i + 1)) () =
  let rows = Panel.run (List.concat_map workloads seeds) in
  List.filter_map
    (fun est ->
      let label = Els.Estimator.label est in
      match List.filter (fun (r : Panel.row) -> r.estimator = label) rows with
      | [] -> None
      | rows ->
        let finite =
          List.filter_map
            (fun (r : Panel.row) ->
              match r.q with Finite q -> Some q | Infinite | Undefined -> None)
            rows
        in
        let count p = List.length (List.filter p rows) in
        let infinite = count (fun r -> r.q = Infinite) in
        let undefined = count (fun r -> r.q = Undefined) in
        (* Undefined cases (empty truth, NaN) are excluded everywhere:
           percentiles run over the finite q-errors only, the
           underestimation share over queries where est vs truth is
           meaningful. One degenerate query no longer poisons the
           aggregates with NaN. *)
        let defined = List.length finite + infinite in
        let unders =
          count (fun r -> r.q <> Undefined && r.estimate < r.truth)
        in
        let sorted = Array.of_list finite in
        Array.sort Float.compare sorted;
        let n = Array.length sorted in
        Some
          {
            algorithm = Els.Config.name (Els.Config.of_estimator est);
            queries = n;
            median_q = percentile sorted 0.5;
            p90_q = percentile sorted 0.9;
            max_q = (if n = 0 then nan else sorted.(n - 1));
            underestimated =
              (if defined = 0 then 0.
               else float_of_int unders /. float_of_int defined);
            infinite;
            undefined;
          })
    (Els.Estimator.registry ())

let render summaries =
  Report.table
    ~header:
      [
        "algorithm"; "queries"; "median q"; "p90 q"; "max q"; "under-est %";
        "inf"; "undef";
      ]
    (List.map
       (fun s ->
         [
           s.algorithm;
           string_of_int s.queries;
           Report.float_cell s.median_q;
           Report.float_cell s.p90_q;
           Report.float_cell s.max_q;
           Printf.sprintf "%.0f%%" (100. *. s.underestimated);
           string_of_int s.infinite;
           string_of_int s.undefined;
         ])
       summaries)
