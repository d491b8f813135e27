let join counters preds ~outer ~inner_schema ~make_inner =
  let left = Operator.schema outer in
  let emit = Emit.joiner counters ~left ~right:inner_schema preds in
  Operator.join (Rel.Schema.concat left inner_schema) (fun k ->
      Operator.iter
        (fun l -> Operator.iter (fun r -> emit k l r) (make_inner ()))
        outer)
