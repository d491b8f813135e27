let optimize_traced ?methods ?budget profile query =
  let space = Dp.space ~who:"Greedy.optimize" ?methods ?budget profile query in
  (* Seed: the table with the smallest effective cardinality. *)
  match Dp.greedy_complete space (Dp.start space (Dp.smallest space)) with
  | path, None ->
    ( Dp.node space path,
      Provenance.completed Provenance.Greedy ~expansions:(Dp.expansions space)
    )
  | path, Some resource ->
    (* Bottom rung: finish the last complete step's plan in FROM order. *)
    ( Dp.node space (Dp.left_deep space path),
      Provenance.degraded Provenance.Left_deep_fallback resource
        ~expansions:(Dp.expansions space) )

let optimize ?methods ?budget profile query =
  fst (optimize_traced ?methods ?budget profile query)
