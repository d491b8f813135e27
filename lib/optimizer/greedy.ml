let default_methods =
  [ Exec.Plan.Nested_loop; Exec.Plan.Sort_merge; Exec.Plan.Hash ]

let optimize_traced ?(methods = default_methods) ?budget profile query =
  if methods = [] then invalid_arg "Greedy.optimize: no join methods";
  let tables = query.Query.tables in
  if tables = [] then invalid_arg "Greedy.optimize: query with no tables";
  let expansions = ref 0 in
  let charge () =
    incr expansions;
    match budget with
    | None -> ()
    | Some b -> Rel.Budget.spend_node_exn b 1
  in
  (* Seed: the table with the smallest effective cardinality. *)
  let smallest acc table =
    let node = Dp.scan_node profile table in
    match acc with
    | None -> Some (table, node)
    | Some (_, best) ->
      if
        node.Dp.state.Els.Incremental.size
        < best.Dp.state.Els.Incremental.size
      then Some (table, node)
      else acc
  in
  let start_table, start =
    match List.fold_left smallest None tables with
    | Some pair -> pair
    | None -> assert false
  in
  (* [current] tracks the last fully-grown node so a budget trip mid-step
     can resume from a consistent (and budget-independent) state. *)
  let current =
    ref (start, List.filter (fun t -> not (String.equal t start_table)) tables)
  in
  let rec grow () =
    let node, remaining = !current in
    if remaining = [] then node
    else begin
      current := Dp.greedy_step ~charge ~methods profile node remaining;
      grow ()
    end
  in
  match grow () with
  | node ->
    (node, Provenance.completed Provenance.Greedy ~expansions:!expansions)
  | exception Rel.Budget.Exhausted resource ->
    (* Bottom rung: finish the partial plan in FROM order, cheapest
       applicable method per step — O(n·methods), never budgeted. *)
    let node, remaining = !current in
    let node = Dp.complete_order ~methods profile node remaining in
    ( node,
      Provenance.degraded Provenance.Left_deep_fallback resource
        ~expansions:!expansions )

let optimize ?methods ?budget profile query =
  fst (optimize_traced ?methods ?budget profile query)
