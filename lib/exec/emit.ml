let joiner counters ~left ~right residual =
  let accept =
    Query.Eval.compile_pair
      (Rel.Schema.concat left right)
      ~split:(Rel.Schema.arity left) residual
  in
  let n_residual = List.length residual in
  fun k l r ->
    Counters.compared counters n_residual;
    if accept l r then begin
      Counters.output counters 1;
      k l r
    end
