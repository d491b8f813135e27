type row = {
  seed : int;
  enumerator : string;
  optimize_s : float;
  estimated_cost : float;
  work : int;
}

let enumerators =
  [
    ("DP", Optimizer.Exhaustive);
    ("greedy", Optimizer.Greedy_order);
    ("random", Optimizer.Randomized 99);
  ]

let run ?(seeds = List.init 5 (fun i -> i + 1)) ?(n_tables = 7) () =
  List.concat_map
    (fun seed ->
      let spec =
        Datagen.Workload.chain ~rows_range:(100, 500)
          ~distinct_range:(20, 200) ~seed ~n_tables ()
      in
      let db = spec.Datagen.Workload.db in
      let query = spec.Datagen.Workload.query in
      List.map
        (fun (name, enumerator) ->
          let t0 = Unix.gettimeofday () in
          let choice = Optimizer.choose ~enumerator Els.Config.els db query in
          let optimize_s = Unix.gettimeofday () -. t0 in
          let _, counters, _ = Exec.Executor.count db choice.Optimizer.plan in
          {
            seed;
            enumerator = name;
            optimize_s;
            estimated_cost = choice.Optimizer.estimated_cost;
            work = Exec.Counters.total_work counters;
          })
        enumerators)
    seeds

let render rows =
  Report.table
    ~header:
      [
        "seed"; "enumerator"; "optimize (ms)"; "est. cost"; "executed work";
      ]
    (List.map
       (fun r ->
         [
           string_of_int r.seed;
           r.enumerator;
           Printf.sprintf "%.2f" (1000. *. r.optimize_s);
           Report.float_cell r.estimated_cost;
           string_of_int r.work;
         ])
       rows)
