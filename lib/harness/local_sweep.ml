type point = {
  cutoff : int;
  standard_est : float;
  els_est : float;
  true_size : int;
}

let run ?(seed = 7) ?(cutoffs = [ 10; 25; 50; 100; 250; 1000; 10000 ]) () =
  let rng = Datagen.Prng.create seed in
  let db = Catalog.Db.create () in
  ignore
    (Datagen.Tablegen.register (Datagen.Prng.split rng) db ~table:"r1"
       ~rows:10000
       [ Datagen.Tablegen.key_column "x" ~rows:10000 ]);
  ignore
    (Datagen.Tablegen.register (Datagen.Prng.split rng) db ~table:"r2"
       ~rows:5000
       [ Datagen.Tablegen.column "y" ~distinct:100 ]);
  let query cutoff =
    Query.make ~projection:Query.Count_star ~tables:[ "r1"; "r2" ]
      [
        Query.Predicate.col_eq (Query.Cref.v "r1" "x") (Query.Cref.v "r2" "y");
        Query.Predicate.cmp (Query.Cref.v "r1" "x") Rel.Cmp.Le
          (Rel.Value.Int cutoff);
      ]
  in
  List.map
    (fun cutoff ->
      let q = query cutoff in
      let order = [ "r1"; "r2" ] in
      let standard_est =
        Els.estimate (Els.Config.sm ~ptc:true) db q order
      in
      let els_est = Els.estimate Els.Config.els db q order in
      let true_size = Exec.Executor.count_query db q in
      { cutoff; standard_est; els_est; true_size })
    cutoffs

let render points =
  Report.table
    ~header:[ "x <= c"; "standard est"; "ELS est"; "true size" ]
    (List.map
       (fun p ->
         [
           string_of_int p.cutoff;
           Report.float_cell p.standard_est;
           Report.float_cell p.els_est;
           string_of_int p.true_size;
         ])
       points)
