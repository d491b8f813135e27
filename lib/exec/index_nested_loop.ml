let join counters preds ~inner_filters ~outer ~inner =
  let outer_schema = Operator.schema outer in
  let inner_schema = Rel.Relation.schema inner in
  let out_schema = Rel.Schema.concat outer_schema inner_schema in
  let keys, residual =
    Join_keys.split ~left:outer_schema ~right:inner_schema preds
  in
  match keys with
  | [] ->
    invalid_arg "Index_nested_loop.join: no equi-join key to index on"
  | (outer_col, inner_col) :: more_keys ->
    (* The first key pair drives the index; any further key pairs are
       checked as residual equalities on the matched tuples. *)
    let accept_inner = Query.Eval.compile_all inner_schema inner_filters in
    let n_inner_filters = List.length inner_filters in
    let n_more_keys = List.length more_keys in
    let emit = Emit.joiner counters out_schema residual in
    (* Building the index scans the inner once. *)
    Counters.read counters (Rel.Relation.cardinality inner);
    let index = Index.build inner ~column:inner_col in
    Operator.make out_schema (fun k ->
        Operator.iter
          (fun left ->
            Counters.compared counters 1 (* the probe *);
            List.iter
              (fun right ->
                Counters.read counters 1;
                Counters.compared counters n_inner_filters;
                if accept_inner right then begin
                  Counters.compared counters n_more_keys;
                  if
                    List.for_all
                      (fun (i, j) -> Rel.Value.sql_equal left.(i) right.(j))
                      more_keys
                  then emit k left right
                end)
              (Index.lookup index left.(outer_col)))
          outer)
