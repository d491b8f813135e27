let relation counters ?(filters = []) rel =
  let schema = Rel.Relation.schema rel in
  let accept = Query.Eval.compile_all schema filters in
  let n_filters = List.length filters in
  Operator.make schema (fun k ->
      Rel.Relation.iter
        (fun tuple ->
          Counters.read counters 1;
          Counters.compared counters n_filters;
          if accept tuple then k tuple)
        rel)
