let join ?table counters preds ~inner_filters ~outer ~inner =
  let left = Operator.schema outer and right = Rel.Relation.schema inner in
  let keys, residual = Join_keys.split ~left ~right preds in
  match keys with
  | [] ->
    invalid_arg "Index_nested_loop.join: no equi-join key to index on"
  | (outer_col, inner_col) :: more_keys ->
    (* The first key pair drives the index; any further key pairs are
       checked as residual equalities on the matched tuples. *)
    let accept_inner = Query.Eval.compile_all right inner_filters in
    let n_inner_filters = List.length inner_filters in
    let n_more_keys = List.length more_keys in
    let emit = Emit.joiner counters ~left ~right residual in
    (* Building the index scans the inner once. *)
    Counters.read counters (Rel.Relation.cardinality inner);
    let index = Index.build ?table inner ~column:inner_col in
    Operator.join (Rel.Schema.concat left right) (fun k ->
        let candidate l r =
          if Rel.Value.equal l.(outer_col) r.(inner_col) then begin
            Counters.read counters 1;
            Counters.compared counters n_inner_filters;
            if accept_inner r then begin
              Counters.compared counters n_more_keys;
              if Join_keys.match_at more_keys l r then emit k l r
            end
          end
        in
        Operator.iter
          (fun l ->
            Counters.compared counters 1 (* the probe *);
            Index.probe index l.(outer_col) candidate l)
          outer)
