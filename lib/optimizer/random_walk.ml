(* Random restarts, and adjacent swaps tried per restart. *)
let restarts = 8
let max_steps = 100

let optimize_traced
    ?(methods = [ Exec.Plan.Nested_loop; Exec.Plan.Sort_merge; Exec.Plan.Hash ])
    ?(seed = 1) ?budget profile query =
  if methods = [] then invalid_arg "Random_walk.optimize: no join methods";
  let tables = Array.of_list query.Query.tables in
  let n = Array.length tables in
  if n = 0 then invalid_arg "Random_walk.optimize: query with no tables";
  let expansions = ref 0 in
  let charge () =
    incr expansions;
    match budget with
    | None -> ()
    | Some b -> Rel.Budget.spend_node_exn b 1
  in
  let boundary () =
    match budget with None -> () | Some b -> Rel.Budget.check_exn b
  in
  let rng = Rel.Prng.create seed in
  let cost_of order = (Dp.plan_order ~charge ~methods profile order).Dp.cost in
  let best = ref None in
  let consider order =
    let node = Dp.plan_order ~charge ~methods profile order in
    match !best with
    | Some incumbent when incumbent.Dp.cost <= node.Dp.cost -> ()
    | Some _ | None -> best := Some node
  in
  let search () =
    for _ = 1 to restarts do
      boundary ();
      let order = Array.copy tables in
      Rel.Prng.shuffle rng order;
      let current = ref (Array.to_list order) in
      let current_cost = ref (cost_of !current) in
      (* Descend through random adjacent transpositions. *)
      let stale = ref 0 in
      let steps = ref 0 in
      while n >= 2 && !steps < max_steps && !stale < 3 * n do
        incr steps;
        let i = if n <= 1 then 0 else Rel.Prng.int rng (n - 1) in
        let arr = Array.of_list !current in
        let tmp = arr.(i) in
        arr.(i) <- arr.(i + 1);
        arr.(i + 1) <- tmp;
        let neighbor = Array.to_list arr in
        let cost = cost_of neighbor in
        if cost < !current_cost then begin
          current := neighbor;
          current_cost := cost;
          stale := 0
        end
        else incr stale
      done;
      consider !current
    done
  in
  match search () with
  | () -> begin
    match !best with
    | Some node ->
      ( node,
        Provenance.completed Provenance.Random_walk ~expansions:!expansions )
    | None -> assert false (* restarts >= 1, so consider ran at least once *)
  end
  | exception Rel.Budget.Exhausted resource -> begin
    match !best with
    | Some node ->
      (* Return the incumbent: the best complete order costed so far. *)
      ( node,
        Provenance.degraded Provenance.Random_walk resource
          ~expansions:!expansions )
    | None ->
      (* Exhausted before even one full costing: FROM-order fallback,
         unbudgeted. *)
      let node = Dp.plan_order ~methods profile (Array.to_list tables) in
      ( node,
        Provenance.degraded Provenance.Left_deep_fallback resource
          ~expansions:!expansions )
  end

let optimize ?methods ?seed ?budget profile query =
  fst (optimize_traced ?methods ?seed ?budget profile query)
