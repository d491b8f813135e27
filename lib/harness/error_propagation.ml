type point = {
  n_tables : int;
  rule : string;
  geo_mean_ratio : float;
  worst_ratio : float;
}

(* One panel per table count over one chain per seed; every registered
   estimator's canonical flags already close the predicate set, so each
   sees the redundancy this figure is about. *)
let run ?(seeds = List.init 10 (fun i -> i + 1)) ?(max_tables = 7) () =
  List.concat_map
    (fun n_tables ->
      (* Keep distinct counts high relative to rows so true sizes stay
         executable out to 7-way joins. *)
      let chain seed =
        Panel.of_spec (string_of_int seed)
          (Datagen.Workload.chain ~rows_range:(100, 600)
             ~distinct_range:(50, 400) ~seed ~n_tables ())
      in
      let rows = Panel.run (List.map chain seeds) in
      List.filter_map
        (fun est ->
          let rule = Els.Estimator.label est in
          (* Trials with an empty truth are skipped. The ratios run newest
             seed first: the geo-mean's summation order, which the F1
             goldens pin to the last bit. *)
          let ratios =
            List.rev
              (List.filter_map
                 (fun (r : Panel.row) ->
                   if r.estimator = rule && r.truth > 0. then
                     Some (r.estimate /. r.truth)
                   else None)
                 rows)
          in
          let error r = Float.abs (Float.log r) in
          match ratios with
          | [] -> None
          | _ ->
            let log_sum =
              List.fold_left (fun acc r -> acc +. Float.log r) 0. ratios
            in
            Some
              {
                n_tables;
                rule;
                geo_mean_ratio =
                  Float.exp (log_sum /. float_of_int (List.length ratios));
                worst_ratio =
                  List.fold_left
                    (fun w r -> if error r > error w then r else w)
                    1. ratios;
              })
        (Els.Estimator.registry ()))
    (List.init (max 0 (max_tables - 1)) (fun i -> i + 2))

let render points =
  Report.table
    ~header:[ "#tables"; "rule"; "geo-mean est/true"; "worst est/true" ]
    (List.map
       (fun p ->
         [
           string_of_int p.n_tables;
           p.rule;
           Report.float_cell p.geo_mean_ratio;
           Report.float_cell p.worst_ratio;
         ])
       points)
