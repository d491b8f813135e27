type row = {
  seed : int;
  n_tables : int;
  algorithm : string;
  join_order : string list;
  work : int;
  work_ratio : float;
}

(* One trial per registered estimator's canonical configuration, as in
   {!Panel}. *)
let algorithms () = Els.Config.panel ()

(* Add a ~20% range predicate on t1's join column so the local-awareness
   of ELS matters too. *)
let with_local_pred db query =
  let t1 = List.hd query.Query.tables in
  let d = Catalog.Table.distinct (Catalog.Db.find_exn db t1) "a" in
  let cutoff = max 1 (d / 5) in
  Query.with_predicates query
    (Query.Predicate.cmp (Query.Cref.v t1 "a") Rel.Cmp.Le
       (Rel.Value.Int cutoff)
    :: query.Query.predicates)

let run ?(seeds = List.init 5 (fun i -> i + 1)) ?(n_tables = 5)
    ?(rows_range = (100, 600))
    ?(methods = [ Exec.Plan.Nested_loop; Exec.Plan.Sort_merge ]) () =
  let algorithms = algorithms () in
  List.concat_map
    (fun seed ->
      let spec =
        Datagen.Workload.chain ~rows_range ~distinct_range:(20, 200) ~seed
          ~n_tables ()
      in
      let db = spec.Datagen.Workload.db in
      let query = with_local_pred db spec.Datagen.Workload.query in
      let trials =
        List.map (fun config -> Runner.run ~methods config db query) algorithms
      in
      let best =
        List.fold_left (fun acc t -> min acc t.Runner.work) max_int trials
      in
      List.map
        (fun (t : Runner.trial) ->
          {
            seed;
            n_tables;
            algorithm = t.Runner.algorithm;
            join_order = t.Runner.join_order;
            work = t.Runner.work;
            work_ratio = float_of_int t.Runner.work /. float_of_int (max 1 best);
          })
        trials)
    seeds

let render rows =
  Report.table
    ~header:[ "seed"; "#tables"; "algorithm"; "join order"; "work"; "work/best" ]
    (List.map
       (fun r ->
         [
           string_of_int r.seed;
           string_of_int r.n_tables;
           r.algorithm;
           String.concat "," r.join_order;
           string_of_int r.work;
           Report.float_cell r.work_ratio;
         ])
       rows)

let summarize rows =
  let by_algo = Hashtbl.create 4 in
  List.iter
    (fun r ->
      let existing =
        Option.value (Hashtbl.find_opt by_algo r.algorithm) ~default:[]
      in
      Hashtbl.replace by_algo r.algorithm (r.work_ratio :: existing))
    rows;
  Hashtbl.fold
    (fun algo ratios acc ->
      let logs = List.map Float.log ratios in
      let geo =
        Float.exp
          (List.fold_left ( +. ) 0. logs /. float_of_int (List.length logs))
      in
      (algo, geo) :: acc)
    by_algo []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
