let join counters preds ~outer ~make_inner =
  let inner_schema = Operator.schema (make_inner ()) in
  let out_schema = Rel.Schema.concat (Operator.schema outer) inner_schema in
  let emit = Emit.joiner counters out_schema preds in
  Operator.make out_schema (fun k ->
      Operator.iter
        (fun left ->
          Operator.iter (fun right -> emit k left right) (make_inner ()))
        outer)
