(* Generated inputs. [--seed] reaches only the Datagen calls here: table
   sizes, distinct counts, query shapes and op mixes are fixed, so two
   seeds do the same amount of work on different data. Join columns are
   exact-uniform, which makes every executed result size independent of
   the seed as well. *)

type relation = { name : string; data : Rel.Relation.t }

let relation rng name ~rows cols =
  {
    name;
    data = Datagen.Tablegen.relation (Datagen.Prng.split rng) ~table:name ~rows cols;
  }

let col = Datagen.Tablegen.column

let names prefix n = List.init n (fun i -> Printf.sprintf "%s%d" prefix (i + 1))

let sql tables preds =
  Printf.sprintf "SELECT COUNT(*) FROM %s WHERE %s"
    (String.concat ", " tables)
    (String.concat " AND " preds)

let rec links column = function
  | a :: (b :: _ as rest) ->
    Printf.sprintf "%s.%s = %s.%s" a column b column :: links column rest
  | [ _ ] | [] -> []

let take n l = List.filteri (fun i _ -> i < n) l

(* --- plan and exec workloads --- *)

type plan_op = {
  label : string;
  sql : string;
  config : Els.Config.t;
  qerror : bool;  (** an ELS op: its final estimate is scored *)
}

type plan = {
  relations : relation list;
  ops : plan_op array;  (** op [i] of a run is [ops.(i mod length)] *)
  methods : Exec.Plan.join_method list option;
  execute : bool;
}

let config id = Els.Config.of_estimator (Els.Estimator.of_string_exn id)

let cross ~estimators queries =
  Array.of_list
    (List.concat_map
       (fun (label, sql) ->
         List.map
           (fun id ->
             { label = label ^ "/" ^ id; sql; config = config id; qerror = false })
           estimators)
       queries)

let chain_distincts = [| 40; 120; 60; 200; 80; 150; 50; 100; 70; 180; 90; 130 |]
let star_distincts = [| 10; 25; 40; 15; 60; 30; 80; 20 |]

(* Twelve chain tables t1..t12, an eight-dimension star, the Section 8
   tables at [scale], and eight comparison tables c1..c8. *)
let planning_relations rng ~scale =
  let chain =
    List.mapi
      (fun i name ->
        relation rng name ~rows:1000 [ col "a" ~distinct:chain_distincts.(i) ])
      (names "t" 12)
  in
  let fact =
    relation rng "fact" ~rows:5000
      (List.mapi
         (fun i d -> col (Printf.sprintf "k%d" (i + 1)) ~distinct:d)
         (Array.to_list star_distincts))
  in
  let dims =
    List.mapi
      (fun i name ->
        relation rng name ~rows:(4 * star_distincts.(i))
          [ col "k" ~distinct:star_distincts.(i) ])
      (names "d" 8)
  in
  let section8 =
    List.map
      (fun (name, rows) ->
        relation rng name ~rows [ Datagen.Tablegen.key_column name ~rows ])
      (Datagen.Section8.cardinalities ~scale)
  in
  let comparison =
    List.mapi
      (fun i name ->
        relation rng name ~rows:600 [ col "a" ~distinct:(30 + (10 * i)) ])
      (names "c" 8)
  in
  chain @ (fact :: dims) @ section8 @ comparison

let chain_query n = (Printf.sprintf "chain%d" n, sql (names "t" n) (links "a" (names "t" n)))

let star_query k =
  let dims = names "d" k in
  ( Printf.sprintf "star%d" k,
    sql ("fact" :: dims)
      (List.mapi (fun i d -> Printf.sprintf "fact.k%d = %s.k" (i + 1) d) dims) )

let section8_query ~scale =
  ( "section8",
    sql [ "s"; "m"; "b"; "g" ]
      [ "s.s = m.m"; "m.m = b.b"; "b.b = g.g"; Printf.sprintf "s.s < %d" (100 / scale) ] )

let comparison_query n op =
  let tables = names "c" n in
  let eqs = links "a" (take (n - 1) tables) in
  let a = Printf.sprintf "c%d.a" (n - 1) and b = Printf.sprintf "c%d.a" n in
  let last, label =
    match op with
    | `Lt -> (Printf.sprintf "%s < %s" a b, "lt")
    | `Ge -> (Printf.sprintf "%s >= %s" a b, "ge")
    | `Band -> (Printf.sprintf "%s BETWEEN %s - 2 AND %s + 2" a b b, "band")
  in
  (Printf.sprintf "cmp%d-%s" n label, sql tables (eqs @ [ last ]))

let range lo hi = List.init (hi - lo + 1) (fun i -> lo + i)
let planning_scale = 10

let plan_eq ~seed =
  let rng = Datagen.Prng.create seed in
  let queries =
    List.map chain_query (range 6 12)
    @ List.map star_query (range 4 8)
    @ [ section8_query ~scale:planning_scale ]
  in
  {
    relations = planning_relations rng ~scale:planning_scale;
    ops = cross ~estimators:[ "m"; "ss"; "ls"; "pess" ] queries;
    methods = None;
    execute = false;
  }

let plan_bounds ~seed =
  let rng = Datagen.Prng.create seed in
  let bounded =
    List.map chain_query (range 6 10)
    @ List.map star_query (range 4 8)
    @ [ section8_query ~scale:planning_scale ]
  in
  let comparisons =
    List.concat_map
      (fun n -> List.map (comparison_query n) [ `Lt; `Ge; `Band ])
      [ 4; 6; 8 ]
  in
  {
    relations = planning_relations rng ~scale:planning_scale;
    ops =
      Array.append
        (cross ~estimators:[ "lp2"; "degseq"; "ent" ] bounded)
        (cross ~estimators:[ "m"; "ss"; "ls" ] comparisons);
    methods = None;
    execute = false;
  }

(* Section 8 at [scale] (1 in real runs), a Zipf star, and small equality
   and comparison chains e1..e4. Every result stays far below 10^6 rows. *)
let exec_run ~seed ~scale =
  let rng = Datagen.Prng.create seed in
  let section8 =
    List.map
      (fun (name, rows) ->
        relation rng name ~rows [ Datagen.Tablegen.key_column name ~rows ])
      (Datagen.Section8.cardinalities ~scale)
  in
  let zipf_distincts = [ 100; 200; 50 ] in
  let zfact =
    relation rng "z" ~rows:20000
      (List.mapi
         (fun i d ->
           col
             ~distribution:(Datagen.Distribution.Zipf 1.0)
             (Printf.sprintf "k%d" (i + 1))
             ~distinct:d)
         zipf_distincts)
  in
  let zdims =
    List.mapi
      (fun i d ->
        relation rng (Printf.sprintf "zd%d" (i + 1)) ~rows:d
          [ Datagen.Tablegen.key_column "k" ~rows:d ])
      zipf_distincts
  in
  let small =
    List.map2
      (fun name d -> relation rng name ~rows:300 [ col "a" ~distinct:d ])
      (names "e" 4) [ 30; 60; 50; 40 ]
  in
  let op ?sm label sql =
    match sm with
    | Some () -> { label; sql; config = Els.Config.sm ~ptc:false; qerror = false }
    | None -> { label; sql; config = Els.Config.els; qerror = true }
  in
  let s8 = snd (section8_query ~scale) in
  let zstar =
    sql
      [ "z"; "zd1"; "zd2"; "zd3" ]
      [ "z.k1 = zd1.k"; "z.k2 = zd2.k"; "z.k3 = zd3.k" ]
  in
  let e n = names "e" n in
  {
    relations = section8 @ (zfact :: zdims) @ small;
    ops =
      [|
        op "section8/els" s8;
        op ~sm:() "section8/sm" s8;
        op "zipf-star/els" zstar;
        op "chain3/els" (sql (e 3) (links "a" (e 3)));
        op "chain4/els" (sql (e 4) (links "a" (e 4)));
        op "lt3/els" (sql (e 3) [ "e1.a = e2.a"; "e2.a < e3.a"; "e3.a < 8" ]);
        op "band3/els"
          (sql (e 3) [ "e1.a = e2.a"; "e2.a BETWEEN e3.a - 1 AND e3.a + 1" ]);
      |];
    methods = Some Exec.Plan.[ Nested_loop; Sort_merge; Hash; Index_nested_loop ];
    execute = true;
  }

(* --- serve workloads --- *)

type serve_op = Estimate | Explain | Run | Analyze

type serve_req = { op : serve_op; sql : string; estimator : string }

type serve = {
  relations : relation list;
  script : serve_req array;
  bit_check : bool;  (** estimates must equal [Els.estimate] bit for bit *)
}

let serve_tables = names "r" 8
let serve_distincts = [| 50; 200; 80; 400; 120; 300; 60; 250 |]
let b_domain = 100_000

let serve_relations rng =
  List.mapi
    (fun i name ->
      relation rng name ~rows:2000
        [
          col "a" ~distinct:serve_distincts.(i);
          col ~distribution:Datagen.Distribution.Random_uniform "b"
            ~distinct:b_domain;
        ])
    serve_tables

let sub_chain ~start ~len =
  List.filteri (fun i _ -> i >= start - 1 && i < start - 1 + len) serve_tables

(* The 40 read templates, cheapest first so that the Zipf head is short:
   every sub-chain of 2-4 tables under two estimators, then every one of 5
   tables under one. *)
let templates =
  let ests = [| "ls"; "m"; "ss"; "pess" |] in
  List.concat_map
    (fun len ->
      List.concat_map
        (fun start -> List.init (if len <= 4 then 2 else 1) (fun _ -> sub_chain ~start ~len))
        (range 1 (9 - len)))
    (range 2 5)
  |> List.mapi (fun k tables -> (tables, ests.(k mod Array.length ests)))

let template_sql (tables, _) ~constant =
  let first = List.hd tables in
  sql tables (links "a" tables @ [ Printf.sprintf "%s.b < %d" first constant ])

(* Small fixed run set: two- and three-table sub-chains under a selective
   predicate, so the executed truth is computed once per query. *)
let run_sqls =
  List.concat_map
    (fun len ->
      List.map
        (fun start ->
          let tables = sub_chain ~start ~len in
          sql tables (links "a" tables @ [ Printf.sprintf "%s.b < 2000" (List.hd tables) ]))
        (range 1 5))
    [ 2; 3 ]

let serve ~seed ~churn ~n =
  let rng = Datagen.Prng.create seed in
  let relations = serve_relations rng in
  let ntemplates = List.length templates in
  let templates = Array.of_list templates in
  let ranks =
    Datagen.Distribution.generate (Datagen.Distribution.Zipf 1.0)
      (Datagen.Prng.split rng) ~rows:n ~distinct:ntemplates
  in
  let runs = Array.of_list run_sqls in
  let fixed = Array.map (template_sql ~constant:(b_domain / 2)) templates in
  let script =
    Array.init n (fun i ->
        let t = ranks.(i) - 1 in
        let estimator = snd templates.(t) in
        let read op =
          let sql =
            if churn then
              template_sql templates.(t) ~constant:(Datagen.Prng.int_in rng 1 b_domain)
            else fixed.(t)
          in
          { op; sql; estimator }
        in
        let writes = churn && Datagen.Prng.float rng < 0.05 in
        if churn && i mod 200 = 50 then { op = Analyze; sql = ""; estimator = "" }
        else if writes then
          { op = Run; sql = runs.(Datagen.Prng.int rng (Array.length runs)); estimator }
        else if Datagen.Prng.float rng < 0.7 then read Estimate
        else read Explain)
  in
  { relations; script; bit_check = not churn }

(* Share of requests whose (op, sql, estimator) already appeared since the
   last [analyze]: the property a response cache would need. *)
let repeat_share script =
  let seen = Hashtbl.create 1024 in
  let repeats = ref 0 and reads = ref 0 in
  Array.iter
    (fun r ->
      match r.op with
      | Analyze -> Hashtbl.reset seen
      | Estimate | Explain | Run ->
        incr reads;
        let key = (r.op, r.sql, r.estimator) in
        if Hashtbl.mem seen key then incr repeats else Hashtbl.add seen key ())
    script;
  if !reads = 0 then 0. else float_of_int !repeats /. float_of_int !reads
