type point = {
  theta : float;
  estimate : float;
  true_size : int;
  ratio : float option;
}

let run ?(seed = 19) ?(rows = (20000, 10000)) ?(distinct = 500)
    ?(thetas = [ 0.; 0.5; 1.0; 1.5 ]) () =
  let rows1, rows2 = rows in
  List.map
    (fun theta ->
      let rng = Datagen.Prng.create seed in
      let db = Catalog.Db.create () in
      let dist =
        if theta = 0. then Datagen.Distribution.Random_uniform
        else Datagen.Distribution.Zipf theta
      in
      ignore
        (Datagen.Tablegen.register (Datagen.Prng.split rng) db ~table:"r1"
           ~rows:rows1
           [ Datagen.Tablegen.column ~distribution:dist "a" ~distinct ]);
      ignore
        (Datagen.Tablegen.register (Datagen.Prng.split rng) db ~table:"r2"
           ~rows:rows2
           [ Datagen.Tablegen.column ~distribution:dist "a" ~distinct ]);
      let query =
        Query.make ~projection:Query.Count_star ~tables:[ "r1"; "r2" ]
          [
            Query.Predicate.col_eq (Query.Cref.v "r1" "a")
              (Query.Cref.v "r2" "a");
          ]
      in
      let estimate = Els.estimate Els.Config.els db query [ "r1"; "r2" ] in
      let true_size = Exec.Executor.count_query db query in
      {
        theta;
        estimate;
        true_size;
        ratio =
          (if true_size = 0 then None
           else Some (estimate /. float_of_int true_size));
      })
    thetas

let render points =
  Report.table
    ~header:[ "theta"; "uniform-model est"; "true size"; "est/true" ]
    (List.map
       (fun p ->
         [
           Report.float_cell p.theta;
           Report.float_cell p.estimate;
           string_of_int p.true_size;
           (match p.ratio with Some r -> Report.float_cell r | None -> "-");
         ])
       points)
