let join ?(table = Flat_table.create ()) counters preds ~outer ~inner =
  let left = Operator.schema outer and right = Operator.schema inner in
  let keys, residual = Join_keys.split ~left ~right preds in
  if keys = [] then
    invalid_arg "Hash_join.join: no equi-join key between the inputs";
  let left_cols = List.map fst keys and right_cols = List.map snd keys in
  let n_keys = List.length keys in
  let emit = Emit.joiner counters ~left ~right residual in
  Operator.iter
    (fun tuple ->
      if not (Join_keys.has_null right_cols tuple) then
        Flat_table.add table tuple (Rel.Tuple.hash_at right_cols tuple))
    inner;
  Flat_table.seal table;
  Operator.join (Rel.Schema.concat left right) (fun k ->
      (* Every build row sharing the probe's full hash is charged its key
         comparisons, keys equal or not, so the count depends on the hash
         function alone and not on how the table lays rows out. *)
      let candidate l r =
        Counters.compared counters n_keys;
        if Join_keys.match_at keys l r then emit k l r
      in
      Operator.iter
        (fun l ->
          Counters.compared counters 1 (* hash computation *);
          if not (Join_keys.has_null left_cols l) then
            Flat_table.probe table (Rel.Tuple.hash_at left_cols l) candidate l)
        outer)
