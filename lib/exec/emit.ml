let joiner counters schema residual =
  let accept = Query.Eval.compile_all schema residual in
  let n_residual = List.length residual in
  fun k left right ->
    let joined = Rel.Tuple.concat left right in
    Counters.compared counters n_residual;
    if accept joined then begin
      Counters.output counters 1;
      k joined
    end
