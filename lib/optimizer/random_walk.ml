(* Random restarts, and adjacent swaps tried per restart. *)
let restarts = 8
let max_steps = 100

let optimize_traced ?methods ?(seed = 1) ?budget profile query =
  let space =
    Dp.space ~who:"Random_walk.optimize" ?methods ?budget profile query
  in
  let n = List.length query.Query.tables in
  let rng = Rel.Prng.create seed in
  (* Cost a complete order, cheapest applicable method per step. *)
  let price order =
    Dp.extend_in_order space (Dp.start space order.(0)) (Array.to_list order)
  in
  let best = ref None in
  let search () =
    for _ = 1 to restarts do
      Dp.boundary space;
      let order = Array.init n Fun.id in
      Rel.Prng.shuffle rng order;
      let current = ref order and current_path = ref (price order) in
      (* Descend through random adjacent transpositions. *)
      let stale = ref 0 and steps = ref 0 in
      while n >= 2 && !steps < max_steps && !stale < 3 * n do
        incr steps;
        let i = Rel.Prng.int rng (n - 1) in
        let neighbor = Array.copy !current in
        neighbor.(i) <- !current.(i + 1);
        neighbor.(i + 1) <- !current.(i);
        let path = price neighbor in
        if Dp.path_cost path < Dp.path_cost !current_path then begin
          current := neighbor;
          current_path := path;
          stale := 0
        end
        else incr stale
      done;
      (* Keep the descent's plan: its order is already costed. *)
      match !best with
      | Some incumbent
        when Dp.path_cost incumbent <= Dp.path_cost !current_path ->
        ()
      | Some _ | None -> best := Some !current_path
    done
  in
  let exhausted =
    match search () with
    | () -> None
    | exception Rel.Budget.Exhausted resource -> Some resource
  in
  let expansions = Dp.expansions space in
  match (!best, exhausted) with
  | Some path, None ->
    ( Dp.node space path,
      Provenance.completed Provenance.Random_walk ~expansions )
  | Some path, Some resource ->
    (* The incumbent: the best complete order costed so far. *)
    ( Dp.node space path,
      Provenance.degraded Provenance.Random_walk resource ~expansions )
  | None, Some resource ->
    (* No descent finished: the FROM-order fallback. *)
    ( Dp.node space (Dp.left_deep space (Dp.start space 0)),
      Provenance.degraded Provenance.Left_deep_fallback resource ~expansions )
  | None, None -> assert false (* restarts >= 1, so a descent finished *)

let optimize ?methods ?seed ?budget profile query =
  fst (optimize_traced ?methods ?seed ?budget profile query)
