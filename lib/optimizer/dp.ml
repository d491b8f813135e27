type node = {
  plan : Exec.Plan.t;
  state : Els.Incremental.state;
  cost : float;
}

(* Whether a join method can run a step, from two facts about the step's
   eligible predicates: is there any ([connected]), and is one an
   equi-join ([equi]). Sort-merge handles any comparison join (its driver
   generalizes to inequality/band windows); hash and index lookups need
   an equality key to probe on. *)
let applies method_ ~connected ~equi =
  match method_ with
  | Exec.Plan.Nested_loop -> true
  | Exec.Plan.Sort_merge -> connected
  | Exec.Plan.Hash | Exec.Plan.Index_nested_loop -> equi

let method_applicable method_ eligible =
  applies method_ ~connected:(eligible <> [])
    ~equi:(List.exists Query.Predicate.is_equijoin eligible)

let scan_plan profile table =
  let tp = Els.Profile.table profile table in
  Exec.Plan.scan ~source:tp.Els.Profile.source
    ~filters:(Els.Profile.scan_filters profile table) table

let scan_node profile table =
  let tp = Els.Profile.table profile table in
  {
    plan = scan_plan profile table;
    state = Els.Incremental.start profile table;
    cost = Cost.scan ~base_rows:tp.Els.Profile.base_rows;
  }

let extend profile node table method_ eligible =
  let state = Els.Incremental.extend profile node.state table in
  let tp = Els.Profile.table profile table in
  let cost =
    node.cost
    +. Cost.join method_ ~outer_rows:node.state.Els.Incremental.size
         ~inner_base_rows:tp.Els.Profile.base_rows
         ~inner_rows:tp.Els.Profile.rows ~out_rows:state.Els.Incremental.size
  in
  {
    plan =
      Exec.Plan.Join
        {
          method_;
          outer = node.plan;
          inner = scan_plan profile table;
          predicates = eligible;
        };
    state;
    cost;
  }

(* A step with no eligible equi-key and no nested loop in [methods] has no
   physical operator at all: structured refusal, never [assert false]. *)
let no_method_error methods tables =
  Els.Els_error.raise_
    (Els.Els_error.Invalid_query
       {
         detail =
           Printf.sprintf
             "no applicable join method for %s: the allowed methods (%s) \
              all need an eligible join predicate (an equality for \
              hash/index) and this step has none (allow nested loop to \
              plan cartesian steps)"
             (match tables with
             | [ t ] -> Printf.sprintf "table %S" t
             | ts -> Printf.sprintf "tables %s" (String.concat ", " ts))
             (String.concat ", " (List.map Exec.Plan.method_name methods));
       })

let no_charge () = ()

let best_extension ?(charge = no_charge) profile methods node table =
  let eligible = Els.Incremental.eligible profile node.state table in
  let candidates =
    List.filter_map
      (fun method_ ->
        if method_applicable method_ eligible then begin
          charge ();
          Some (extend profile node table method_ eligible)
        end
        else None)
      methods
  in
  match candidates with
  | [] -> None
  | first :: rest ->
    let best =
      List.fold_left
        (fun acc node' -> if node'.cost < acc.cost then node' else acc)
        first rest
    in
    Some (best, eligible <> [])

let complete_order ?charge ~methods profile node order =
  List.fold_left
    (fun node table ->
      match best_extension ?charge profile methods node table with
      | Some (node', _) -> node'
      | None -> no_method_error methods [ table ])
    node order

let plan_order ?charge ~methods profile order =
  match order with
  | [] -> invalid_arg "Dp.plan_order: empty order"
  | first :: rest ->
    complete_order ?charge ~methods profile (scan_node profile first) rest

let greedy_step ?charge ~methods profile node remaining =
  let candidates =
    List.filter_map
      (fun table ->
        Option.map
          (fun (node', connected) -> (table, node', connected))
          (best_extension ?charge profile methods node table))
      remaining
  in
  (* Prefer predicate-connected extensions, as DP does. *)
  let connected = List.filter (fun (_, _, c) -> c) candidates in
  let pool = if connected <> [] then connected else candidates in
  match pool with
  | [] -> no_method_error methods remaining
  | first :: rest ->
    let table, node', _ =
      List.fold_left
        (fun (bt, bn, bc) (t, n, c) ->
          if n.cost < bn.cost then (t, n, c) else (bt, bn, bc))
        first rest
    in
    (node', List.filter (fun t -> not (String.equal t table)) remaining)

let rec greedy_complete ?charge ~methods profile node remaining =
  if remaining = [] then node
  else
    let node', remaining' =
      greedy_step ?charge ~methods profile node remaining
    in
    greedy_complete ?charge ~methods profile node' remaining'

let max_tables = 20

(* A back-pointer packs the bit of the table a mask's plan added last
   with the index of its join method in [methods]; a seed stores its own
   bit and method 0. Bits stay below 32 because n <= 20. *)
let method_shift = 5
let back_bit p = p land ((1 lsl method_shift) - 1)
let back_method p = p lsr method_shift

(* Gosper's hack: the next larger int with the same number of set bits,
   so each subset size is visited in ascending mask order. *)
let next_same_popcount x =
  let low = x land -x in
  let ripple = x + low in
  (((ripple lxor x) lsr 2) / low) lor ripple

(* The per-mask arrays of one enumeration: the cheapest plan found for
   each mask, its cost, its estimated size along its own join order, and
   its back-pointer (-1: unreached). *)
type arrays = { costs : float array; sizes : float array; backs : int array }

(* Each domain keeps the arrays of its last call for the next one.
   [Atomic.exchange] hands them to one call at a time and leaves [taken]
   in the slot, so a re-entrant call, a second systhread on the domain, or
   the call after one that raised finds no arrays and allocates its own.
   Arrays longer than [max_retained] entries (2^16, 1.5 MiB over the
   three) are not kept. *)
let taken = { costs = [||]; sizes = [||]; backs = [||] }

let spare : arrays Atomic.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Atomic.make taken)

let max_retained = 1 lsl 16

(* Only [backs] is refilled: every read of [costs] or [sizes] sits behind
   a [back >= 0] test, so their stale entries are never seen. *)
let take_arrays entries =
  let a = Atomic.exchange (Domain.DLS.get spare) taken in
  if Array.length a.backs >= entries then begin
    Array.fill a.backs 0 entries (-1);
    a
  end
  else
    {
      costs = Array.make entries 0.;
      sizes = Array.make entries 0.;
      backs = Array.make entries (-1);
    }

let give_back a =
  if Array.length a.backs <= max_retained then
    Atomic.set (Domain.DLS.get spare) a

let optimize_traced
    ?(methods = [ Exec.Plan.Nested_loop; Exec.Plan.Sort_merge; Exec.Plan.Hash ])
    ?budget profile query =
  if methods = [] then invalid_arg "Dp.optimize: no join methods";
  let tables = Array.of_list query.Query.tables in
  let n = Array.length tables in
  if n = 0 then invalid_arg "Dp.optimize: query with no tables";
  if n > max_tables then
    Els.Els_error.raise_
      (Els.Els_error.Invalid_query
         {
           detail =
             Printf.sprintf
               "exact DP enumerates at most %d tables and this query joins \
                %d; the greedy and random enumerators have no such limit"
               max_tables n;
         });
  let expansions = ref 0 in
  (* One node expansion = one seed scan or one (edge, method) candidate
     charged to the budget; [spend_node] also probes the deadline, so
     exhaustion is detected within one expansion of the limit. *)
  let charge () =
    incr expansions;
    match budget with
    | None -> ()
    | Some b -> Rel.Budget.spend_node_exn b 1
  in
  let boundary () =
    match budget with None -> () | Some b -> Rel.Budget.check_exn b
  in
  let kernel = Els.Profile.kernel profile in
  let methods_arr = Array.of_list methods in
  let full = (1 lsl n) - 1 in
  let arrays = take_arrays (full + 1) in
  let { costs = cost; sizes = size; backs = back } = arrays in
  (* Per table, the tables one join predicate away, and those one
     equi-join away: connectivity and method applicability in one [land]
     each. *)
  let joins = Array.make n 0 and equijoins = Array.make n 0 in
  for id = 0 to Els.Profile.pred_count profile - 1 do
    let info = Els.Profile.pred profile id in
    match info.Els.Profile.endpoints with
    | None -> ()
    | Some (a, b) ->
      joins.(a) <- joins.(a) lor (1 lsl b);
      joins.(b) <- joins.(b) lor (1 lsl a);
      if Query.Predicate.is_equijoin info.Els.Profile.pred then begin
        equijoins.(a) <- equijoins.(a) lor (1 lsl b);
        equijoins.(b) <- equijoins.(b) lor (1 lsl a)
      end
  done;
  let table_at bit = Els.Profile.table_at profile bit in
  let base_rows =
    Array.init n (fun bit -> (table_at bit).Els.Profile.base_rows)
  in
  let rows = Array.init n (fun bit -> (table_at bit).Els.Profile.rows) in
  let scan_cost = Array.map (fun base_rows -> Cost.scan ~base_rows) base_rows in
  let io = Array.make Cost.slots 0. in
  (* Every applicable method of the edge [mask] -> [mask ∪ {bit}] is
     charged and costed from one kernel step, run after the first
     charge. A candidate replaces the incumbent unless the incumbent
     costs no more, so ties keep the first. *)
  let extend_edge mask bit ~connected ~equi =
    let target = mask lor (1 lsl bit) in
    let stepped = ref false in
    for j = 0 to Array.length methods_arr - 1 do
      let method_ = methods_arr.(j) in
      if applies method_ ~connected ~equi then begin
        charge ();
        if not !stepped then begin
          stepped := true;
          Els.Kernel.extend_into_slot kernel ~sizes:size ~mask ~bit ~dst:io
            ~slot:Cost.slot_out_rows;
          io.(Cost.slot_outer_rows) <- size.(mask);
          io.(Cost.slot_inner_base_rows) <- base_rows.(bit);
          io.(Cost.slot_inner_rows) <- rows.(bit)
        end;
        Cost.join_into method_ io;
        let c = cost.(mask) +. io.(Cost.slot_cost) in
        if back.(target) < 0 || not (cost.(target) <= c) then begin
          cost.(target) <- c;
          size.(target) <- io.(Cost.slot_out_rows);
          back.(target) <- (j lsl method_shift) lor bit
        end
      end
    done
  in
  (* Prefer predicate-connected extensions: cartesian steps are
     considered only when no absent table connects at all. *)
  let expand mask =
    let any_connected = ref false in
    for bit = 0 to n - 1 do
      if mask land (1 lsl bit) = 0 && joins.(bit) land mask <> 0 then
        any_connected := true
    done;
    for bit = 0 to n - 1 do
      if mask land (1 lsl bit) = 0 then begin
        let connected = joins.(bit) land mask <> 0 in
        if connected || not !any_connected then
          extend_edge mask bit ~connected
            ~equi:(equijoins.(bit) land mask <> 0)
      end
    done
  in
  (* Highest subset size whose entries are final. Entries of size s+1
     become final only once every size-s mask has been processed, so
     everything at or below [completed_size] is identical no matter where
     a budget later trips — the anytime fallback only builds on these
     budget-independent states. *)
  let completed_size = ref 0 in
  let enumerate () =
    for bit = 0 to n - 1 do
      charge ();
      Els.Kernel.start_into kernel ~sizes:size ~bit;
      cost.(1 lsl bit) <- scan_cost.(bit);
      back.(1 lsl bit) <- bit
    done;
    completed_size := 1;
    (* Grow subsets in increasing size so every mask is final before it is
       extended. *)
    for k = 1 to n - 1 do
      boundary ();
      let mask = ref ((1 lsl k) - 1) in
      while !mask <= full do
        if back.(!mask) >= 0 then expand !mask;
        mask := next_same_popcount !mask
      done;
      completed_size := k + 1
    done
  in
  (* The node the back-pointers record for a reached mask, rebuilt from
     the stored sizes and costs: no kernel step reruns. *)
  let rec node_of mask =
    let p = back.(mask) in
    let bit = back_bit p in
    let outer = mask lxor (1 lsl bit) in
    let state rev_history =
      { Els.Incremental.mask; size = size.(mask); rev_history }
    in
    if outer = 0 then
      {
        plan = scan_plan profile tables.(bit);
        state = state [];
        cost = cost.(mask);
      }
    else
      let prefix = node_of outer in
      {
        plan =
          Exec.Plan.Join
            {
              method_ = methods_arr.(back_method p);
              outer = prefix.plan;
              inner = scan_plan profile tables.(bit);
              predicates =
                Els.Incremental.eligible profile prefix.state tables.(bit);
            };
        state =
          state (size.(mask) :: prefix.state.Els.Incremental.rev_history);
        cost = cost.(mask);
      }
  in
  (* Anytime fallback on exhaustion: pick the cheapest among a ladder of
     candidates whose set only grows with the budget (stopping later never
     removes a candidate), so with the same inputs a bigger budget can
     never choose a costlier plan:
     - the best full plan found so far (deterministic prefix of the
       expansion order);
     - a greedy completion of the cheapest mask of each finalized subset
       size (budget-independent states, largest size first so ties prefer
       the most DP-informed plan);
     - the FROM-order left-deep fallback (budget-independent, last so it
       only wins when strictly cheaper). *)
  let anytime_result resource =
    let attempt rung f =
      match f () with
      | node -> Some (rung, node)
      | exception Els.Els_error.Error _ -> None
    in
    let full_candidate =
      if back.(full) >= 0 then Some (Provenance.Dp, node_of full) else None
    in
    let cheapest_of_size k =
      let best = ref (-1) in
      let mask = ref ((1 lsl k) - 1) in
      while !mask <= full do
        let m = !mask in
        if back.(m) >= 0 && (!best < 0 || not (cost.(!best) <= cost.(m)))
        then best := m;
        mask := next_same_popcount m
      done;
      !best
    in
    let completions =
      List.filter_map
        (fun k ->
          let mask = cheapest_of_size k in
          if mask < 0 then None
          else
            let remaining =
              List.filteri
                (fun bit _ -> mask land (1 lsl bit) = 0)
                (Array.to_list tables)
            in
            attempt Provenance.Greedy (fun () ->
                greedy_complete ~methods profile (node_of mask) remaining))
        (List.init !completed_size (fun i -> !completed_size - i))
    in
    let left_deep =
      attempt Provenance.Left_deep_fallback (fun () ->
          plan_order ~methods profile (Array.to_list tables))
    in
    let candidates =
      Option.to_list full_candidate @ completions @ Option.to_list left_deep
    in
    match candidates with
    | [] -> no_method_error methods (Array.to_list tables)
    | (rung0, node0) :: rest ->
      let rung, node =
        List.fold_left
          (fun (br, bn) (r, n') ->
            if n'.cost < bn.cost then (r, n') else (br, bn))
          (rung0, node0) rest
      in
      (node, Provenance.degraded rung resource ~expansions:!expansions)
  in
  let result =
    match enumerate () with
    | () ->
      if back.(full) >= 0 then
        ( node_of full,
          Provenance.completed Provenance.Dp ~expansions:!expansions )
      else
        (* Reachable only when [methods] lacks nested loop and some subset
           has no equi-connected extension. *)
        no_method_error methods (Array.to_list tables)
    | exception Rel.Budget.Exhausted resource -> anytime_result resource
  in
  give_back arrays;
  result

let optimize ?methods ?budget profile query =
  fst (optimize_traced ?methods ?budget profile query)
