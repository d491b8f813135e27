let join counters preds ~outer ~inner =
  let left_schema = Operator.schema outer in
  let right_schema = Operator.schema inner in
  let out_schema = Rel.Schema.concat left_schema right_schema in
  let keys, residual =
    Join_keys.split ~left:left_schema ~right:right_schema preds
  in
  if keys = [] then
    invalid_arg "Hash_join.join: no equi-join key between the inputs";
  let left_cols = List.map fst keys and right_cols = List.map snd keys in
  let n_keys = List.length keys in
  let emit = Emit.joiner counters out_schema residual in
  let table : (int, Rel.Tuple.t list ref) Hashtbl.t = Hashtbl.create 4096 in
  Operator.iter
    (fun tuple ->
      if not (Join_keys.has_null right_cols tuple) then begin
        let h = Rel.Tuple.hash_at right_cols tuple in
        match Hashtbl.find_opt table h with
        | Some bucket -> bucket := tuple :: !bucket
        | None -> Hashtbl.add table h (ref [ tuple ])
      end)
    inner;
  let keys_match left right =
    List.for_all2
      (fun i j -> Rel.Value.equal left.(i) right.(j))
      left_cols right_cols
  in
  Operator.make out_schema (fun k ->
      Operator.iter
        (fun left ->
          Counters.compared counters 1 (* hash computation *);
          if not (Join_keys.has_null left_cols left) then
            match
              Hashtbl.find_opt table (Rel.Tuple.hash_at left_cols left)
            with
            | None -> ()
            | Some bucket ->
              List.iter
                (fun right ->
                  Counters.compared counters n_keys;
                  if keys_match left right then emit k left right)
                !bucket)
        outer)
