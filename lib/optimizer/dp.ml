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

let scan_plan profile table =
  let tp = Els.Profile.table profile table in
  Exec.Plan.scan ~source:tp.Els.Profile.source
    ~filters:(Els.Profile.scan_filters profile table) table

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
             (String.concat ", "
                (Array.to_list (Array.map Exec.Plan.method_name methods)));
       })

let max_tables = 20

type space = {
  profile : Els.Profile.t;
  kernel : Els.Kernel.t;
  tables : string array;
  methods : Exec.Plan.join_method array;
  joins : int array;
  equijoins : int array;
  base_rows : float array;
  rows : float array;
  io : float array;
  budget : Rel.Budget.t option;
  mutable expansions : int;
}

let make_space ~who
    ?(methods = [ Exec.Plan.Nested_loop; Exec.Plan.Sort_merge; Exec.Plan.Hash ])
    ?budget profile tables =
  if methods = [] then invalid_arg (who ^ ": no join methods");
  let n = Array.length tables in
  if n = 0 then invalid_arg (who ^ ": query with no tables");
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
  {
    profile;
    kernel = Els.Profile.kernel profile;
    tables;
    methods = Array.of_list methods;
    joins;
    equijoins;
    base_rows = Array.init n (fun bit -> (table_at bit).Els.Profile.base_rows);
    rows = Array.init n (fun bit -> (table_at bit).Els.Profile.rows);
    io = Array.make Cost.slots 0.;
    budget;
    expansions = 0;
  }

let space ~who ?methods ?budget profile query =
  make_space ~who ?methods ?budget profile (Array.of_list query.Query.tables)

let expansions s = s.expansions

(* One expansion = one seed scan of DP or one (edge, method) candidate;
   [spend_node] also probes the deadline, so exhaustion is detected
   within one expansion of the limit. *)
let charge s =
  s.expansions <- s.expansions + 1;
  match s.budget with None -> () | Some b -> Rel.Budget.spend_node_exn b 1

let boundary s =
  match s.budget with None -> () | Some b -> Rel.Budget.check_exn b

(* The same space with no budget and a count of its own: the rungs that
   run after a budget trip charge neither. *)
let unbudgeted s = { s with budget = None }

(* The one extension step of every enumerator. Charges each applicable
   method of joining table [bit] onto a plan over [mask] whose size is in
   [io.(slot_outer_rows)], runs one kernel step after the first charge,
   prices the method into [io.(slot_cost)] and hands the candidate to
   [candidate mask bit j] ([j] indexes [methods]), which reads the output
   size and join cost from [io]. It chooses nothing: each caller keeps
   its own tie rule. *)
let edge s ~mask ~bit candidate =
  let connected = s.joins.(bit) land mask <> 0 in
  let equi = s.equijoins.(bit) land mask <> 0 in
  let stepped = ref false in
  for j = 0 to Array.length s.methods - 1 do
    if applies s.methods.(j) ~connected ~equi then begin
      charge s;
      if not !stepped then begin
        stepped := true;
        Els.Kernel.extend_into_slot s.kernel ~mask ~bit ~io:s.io
          ~src:Cost.slot_outer_rows ~dst:Cost.slot_out_rows;
        s.io.(Cost.slot_inner_base_rows) <- s.base_rows.(bit);
        s.io.(Cost.slot_inner_rows) <- s.rows.(bit)
      end;
      Cost.join_into s.methods.(j) s.io;
      candidate mask bit j
    end
  done

(* A join step packs the bit of the table it adds with the index of its
   method in [methods]; DP's back-pointers pack the same way, a seed
   storing its own bit and method 0. Bits stay below 62, the profile's
   limit. *)
let method_shift = 6
let back_bit p = p land ((1 lsl method_shift) - 1)
let back_method p = p lsr method_shift

(* A left-deep plan under construction: its packed steps, newest first,
   down to its first table's; the estimated size after each join, newest
   first; the set of its tables, its size and its cost. *)
type path = {
  steps : int list;
  history : float list;
  mask : int;
  size : float;
  cost : float;
}

let path_cost p = p.cost

let start s bit =
  let cost = Cost.scan ~base_rows:s.base_rows.(bit) in
  let size = s.rows.(bit) in
  { steps = [ bit ]; history = []; mask = 1 lsl bit; size; cost }

(* The table with the smallest effective cardinality, first on ties. *)
let smallest s =
  let best = ref 0 in
  Array.iteri (fun bit r -> if r < s.rows.(!best) then best := bit) s.rows;
  !best

(* One greedy step over the tables [among] (see [greedy_complete] in the
   interface); [extend_in_order] takes steps over one table each. *)
let step s p among =
  let table = ref None in
  let keep _mask bit j =
    let cost = p.cost +. s.io.(Cost.slot_cost) in
    match !table with
    | Some t when not (cost < t.cost) -> ()
    | Some _ | None ->
      let size = s.io.(Cost.slot_out_rows) in
      let steps = ((j lsl method_shift) lor bit) :: p.steps in
      let mask = p.mask lor (1 lsl bit) in
      table := Some { steps; history = size :: p.history; mask; size; cost }
  in
  s.io.(Cost.slot_outer_rows) <- p.size;
  let candidates =
    List.filter_map
      (fun bit ->
        table := None;
        edge s ~mask:p.mask ~bit keep;
        match !table with
        | None -> None
        | Some t -> Some (s.joins.(bit) land p.mask <> 0, t))
      among
  in
  let pool =
    match List.filter fst candidates with [] -> candidates | pool -> pool
  in
  match pool with
  | [] -> no_method_error s.methods (List.map (fun b -> s.tables.(b)) among)
  | (_, first) :: rest ->
    List.fold_left
      (fun best (_, p') -> if p'.cost < best.cost then p' else best)
      first rest

let extend_in_order s p order =
  List.fold_left
    (fun p bit -> if p.mask land (1 lsl bit) <> 0 then p else step s p [ bit ])
    p order

let absent s p =
  List.init (Array.length s.tables) Fun.id
  |> List.filter (fun bit -> p.mask land (1 lsl bit) = 0)

let left_deep s p = extend_in_order (unbudgeted s) p (absent s p)

let rec greedy_complete s p =
  match absent s p with
  | [] -> (p, None)
  | among -> (
    match step s p among with
    | p' -> greedy_complete s p'
    | exception Rel.Budget.Exhausted resource -> (p, Some resource))

(* The plan over [mask] whose steps, newest first, are [steps];
   [eligible] reads only a state's tables. *)
let rec plan_of s state mask steps =
  let step = List.hd steps in
  let bit = back_bit step in
  let outer = mask lxor (1 lsl bit) in
  let scan = scan_plan s.profile s.tables.(bit) in
  if outer = 0 then scan
  else
    Exec.Plan.Join
      {
        method_ = s.methods.(back_method step);
        outer = plan_of s state outer (List.tl steps);
        inner = scan;
        predicates =
          Els.Incremental.eligible s.profile
            { state with Els.Incremental.mask = outer }
            s.tables.(bit);
      }

(* The plan, estimation state and cost of [p], built once: eligible
   predicates and scan filters are computed on this path only. *)
let node s p =
  let state =
    { Els.Incremental.mask = p.mask; size = p.size; rev_history = p.history }
  in
  { plan = plan_of s state p.mask p.steps; state; cost = p.cost }

let plan_order ~methods profile order =
  if order = [] then invalid_arg "Dp.plan_order: empty order";
  let s =
    make_space ~who:"Dp.plan_order" ~methods profile
      (Array.init (Els.Profile.table_count profile)
         (Els.Profile.table_name profile))
  in
  let bits = List.map (Els.Profile.table_bit profile) order in
  node s (extend_in_order s (start s (List.hd bits)) bits)

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

(* Each domain keeps the arrays of its last call for the next one;
   [Atomic.exchange] hands them to one call at a time and leaves [taken]
   in the slot (see the interface). *)
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

(* The steps and sizes a reached mask's back-pointers record, newest
   first. *)
let rec back_steps back m =
  if m = 0 then []
  else back.(m) :: back_steps back (m lxor (1 lsl back_bit back.(m)))

let rec back_history back sizes m =
  let outer = m lxor (1 lsl back_bit back.(m)) in
  if outer = 0 then [] else sizes.(m) :: back_history back sizes outer

let optimize_traced ?methods ?budget profile query =
  let n = List.length query.Query.tables in
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
  let s = space ~who:"Dp.optimize" ?methods ?budget profile query in
  let full = (1 lsl n) - 1 in
  let arrays = take_arrays (full + 1) in
  let { costs = cost; sizes = size; backs = back } = arrays in
  let io = s.io in
  (* A candidate replaces the incumbent unless the incumbent costs no
     more, so ties keep the first. *)
  let candidate mask bit j =
    let target = mask lor (1 lsl bit) in
    let c = cost.(mask) +. io.(Cost.slot_cost) in
    if back.(target) < 0 || not (cost.(target) <= c) then begin
      cost.(target) <- c;
      size.(target) <- io.(Cost.slot_out_rows);
      back.(target) <- (j lsl method_shift) lor bit
    end
  in
  (* Prefer predicate-connected extensions: cartesian steps are
     considered only when no absent table connects at all. *)
  let expand mask =
    io.(Cost.slot_outer_rows) <- size.(mask);
    let any_connected = ref false in
    for bit = 0 to n - 1 do
      if mask land (1 lsl bit) = 0 && s.joins.(bit) land mask <> 0 then
        any_connected := true
    done;
    for bit = 0 to n - 1 do
      if
        mask land (1 lsl bit) = 0
        && (s.joins.(bit) land mask <> 0 || not !any_connected)
      then edge s ~mask ~bit candidate
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
      charge s;
      Els.Kernel.start_into s.kernel ~sizes:size ~bit;
      cost.(1 lsl bit) <- Cost.scan ~base_rows:s.base_rows.(bit);
      back.(1 lsl bit) <- bit
    done;
    completed_size := 1;
    (* Grow subsets in increasing size so every mask is final before it is
       extended. *)
    for k = 1 to n - 1 do
      boundary s;
      let mask = ref ((1 lsl k) - 1) in
      while !mask <= full do
        if back.(!mask) >= 0 then expand !mask;
        mask := next_same_popcount !mask
      done;
      completed_size := k + 1
    done
  in
  (* The path the back-pointers record for a reached mask. *)
  let path_of mask =
    {
      steps = back_steps back mask;
      history = back_history back size mask;
      mask;
      size = size.(mask);
      cost = cost.(mask);
    }
  in
  (* On exhaustion, the cheapest rung of the anytime ladder (see the
     interface): each candidate is budget-independent or a deterministic
     prefix of the expansion order, so a bigger budget never removes one,
     and ties keep the earlier rung. The rungs after the first are not
     charged. *)
  let anytime_result resource =
    let attempt rung f =
      match f () with
      | p -> Some (rung, p)
      | exception Els.Els_error.Error _ -> None
    in
    let full_candidate =
      if back.(full) >= 0 then Some (Provenance.Dp, path_of full) else None
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
            attempt Provenance.Greedy (fun () ->
                fst (greedy_complete (unbudgeted s) (path_of mask))))
        (List.init !completed_size (fun i -> !completed_size - i))
    in
    let fallback =
      attempt Provenance.Left_deep_fallback (fun () -> left_deep s (start s 0))
    in
    let candidates =
      Option.to_list full_candidate @ completions @ Option.to_list fallback
    in
    match candidates with
    | [] -> no_method_error s.methods (Array.to_list s.tables)
    | (rung0, p0) :: rest ->
      let rung, p =
        List.fold_left
          (fun (br, bp) (r, p') ->
            if p'.cost < bp.cost then (r, p') else (br, bp))
          (rung0, p0) rest
      in
      (node s p, Provenance.degraded rung resource ~expansions:s.expansions)
  in
  let result =
    match enumerate () with
    | () ->
      if back.(full) >= 0 then
        ( node s (path_of full),
          Provenance.completed Provenance.Dp ~expansions:s.expansions )
      else
        (* Reachable only when [methods] lacks nested loop and some subset
           has no equi-connected extension. *)
        no_method_error s.methods (Array.to_list s.tables)
    | exception Rel.Budget.Exhausted resource -> anytime_result resource
  in
  give_back arrays;
  result

let optimize ?methods ?budget profile query =
  fst (optimize_traced ?methods ?budget profile query)
