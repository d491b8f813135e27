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

(* What one domain writes while it extends plans: the kernel lane it
   steps with, the {!Cost} slots it prices in, and [counts] (the
   expansions it charged, the mask a DP level is pricing, the highest
   subset size whose entries are final). Exhaustive DP adds its per-mask
   arrays: cost, size along the plan's own order, back-pointer (-1 marks
   an unreached mask). The arrays a domain writes on every step keep [pad]
   words clear at either end, so no cache line holding one of their slots
   holds another object (see {!Els.Kernel.lane}). *)
type lane = {
  mutable scratch : Els.Kernel.lane;
  io : float array;
  counts : int array;
  mutable costs : float array;
  mutable sizes : float array;
  mutable backs : int array;
}

let pad = 8
let expanded = pad
let target = pad + 1
let completed = pad + 2

let new_lane scratch =
  {
    scratch;
    io = Array.make Cost.slots 0.;
    counts = Array.make (3 + (2 * pad)) 0;
    costs = [||];
    sizes = [||];
    backs = [||];
  }

type space = {
  profile : Els.Profile.t;
  kernel : Els.Kernel.t;
  tables : string array;
  methods : Exec.Plan.join_method array;
  joins : int array;
  equijoins : int array;
  base_rows : float array;
  rows : float array;
  lane : lane;
  budget : Rel.Budget.t option;
}

let make_space ~who
    ?(methods = [ Exec.Plan.Nested_loop; Exec.Plan.Sort_merge; Exec.Plan.Hash ])
    ?budget profile tables lane =
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
  let base_rows = Array.make n 0. and rows = Array.make n 0. in
  for bit = 0 to n - 1 do
    let table = Els.Profile.table_at profile bit in
    base_rows.(bit) <- table.Els.Profile.base_rows;
    rows.(bit) <- table.Els.Profile.rows
  done;
  let kernel = Els.Profile.kernel profile in
  {
    profile;
    kernel;
    tables;
    methods = Array.of_list methods;
    joins;
    equijoins;
    base_rows;
    rows;
    lane = lane kernel;
    budget;
  }

(* A lane on the kernel's own scratch, for the enumerators that step on
   the calling domain alone. *)
let own_lane kernel = new_lane (Els.Kernel.own kernel)

let space ~who ?methods ?budget profile query =
  make_space ~who ?methods ?budget profile
    (Array.of_list query.Query.tables)
    own_lane

let expansions s = s.lane.counts.(expanded)

(* One expansion = one seed scan of DP or one (edge, method) candidate;
   [spend_node] also probes the deadline, so exhaustion is detected
   within one expansion of the limit. *)
let charge s l =
  l.counts.(expanded) <- l.counts.(expanded) + 1;
  match s.budget with None -> () | Some b -> Rel.Budget.spend_node_exn b 1

let boundary s =
  match s.budget with None -> () | Some b -> Rel.Budget.check_exn b

(* The same space with no budget and a count of its own: the rungs that
   run after a budget trip charge neither. *)
let unbudgeted s = { s with budget = None; lane = own_lane s.kernel }

(* The one extension step of every enumerator. Charges each applicable
   method of joining table [bit] onto a plan over [mask] whose size is in
   [l.io.(slot_outer_rows)], runs one kernel step on [l]'s kernel lane
   after the first charge, prices the method into [l.io.(slot_cost)] and
   hands the candidate to [candidate l mask bit j] ([j] indexes
   [methods]), which reads the output size and join cost from [l.io]. It
   chooses nothing: each caller keeps its own tie rule. *)
let edge s l ~mask ~bit candidate =
  let connected = s.joins.(bit) land mask <> 0 in
  let equi = s.equijoins.(bit) land mask <> 0 in
  let stepped = ref false in
  for j = 0 to Array.length s.methods - 1 do
    if applies s.methods.(j) ~connected ~equi then begin
      charge s l;
      if not !stepped then begin
        stepped := true;
        Els.Kernel.extend_into_slot s.kernel l.scratch ~mask ~bit ~io:l.io
          ~src:Cost.slot_outer_rows ~dst:Cost.slot_out_rows;
        l.io.(Cost.slot_inner_base_rows) <- s.base_rows.(bit);
        l.io.(Cost.slot_inner_rows) <- s.rows.(bit)
      end;
      Cost.join_into s.methods.(j) l.io;
      candidate l mask bit j
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
  let keep l _mask bit j =
    let cost = p.cost +. l.io.(Cost.slot_cost) in
    match !table with
    | Some t when not (cost < t.cost) -> ()
    | Some _ | None ->
      let size = l.io.(Cost.slot_out_rows) in
      let steps = ((j lsl method_shift) lor bit) :: p.steps in
      let mask = p.mask lor (1 lsl bit) in
      table := Some { steps; history = size :: p.history; mask; size; cost }
  in
  s.lane.io.(Cost.slot_outer_rows) <- p.size;
  let candidates =
    List.filter_map
      (fun bit ->
        table := None;
        edge s s.lane ~mask:p.mask ~bit keep;
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
      own_lane
  in
  let bits = List.map (Els.Profile.table_bit profile) order in
  node s (extend_in_order s (start s (List.hd bits)) bits)

(* Gosper's hack: the next larger int with the same number of set bits,
   so each subset size is visited in ascending mask order. *)
let next_same_popcount x =
  let low = x land -x in
  let ripple = x + low in
  (((ripple lxor x) lsr 2) / low) lor ripple

let rec choose n k = if k = 0 then 1 else choose n (k - 1) * (n - k + 1) / k

(* Whether some table outside [mask], from [bit] up, has a join predicate
   into it. *)
let rec connects s mask bit =
  bit < Array.length s.tables
  && ((mask land (1 lsl bit) = 0 && s.joins.(bit) land mask <> 0)
     || connects s mask (bit + 1))

(* A candidate for the mask the level is pricing: it replaces the
   incumbent unless the incumbent costs no more, so ties keep the
   first. *)
let keep l mask bit j =
  let t = l.counts.(target) in
  let c = l.costs.(mask) +. l.io.(Cost.slot_cost) in
  if l.backs.(t) < 0 || not (l.costs.(t) <= c) then begin
    l.costs.(t) <- c;
    l.sizes.(t) <- l.io.(Cost.slot_out_rows);
    l.backs.(t) <- (j lsl method_shift) lor bit
  end

(* One level in pull form (see the interface): each of [count] masks of
   one size, from [first] on, visits its sources T∖{b} in ascending order
   (b descending). A source takes a table with no join predicate into it
   only when no absent table has one. Reads and writes only [l]'s arrays;
   returns how many masks it reached. *)
let level s l ~first ~count =
  let n = Array.length s.tables in
  let reached = ref 0 and next = ref first in
  for _ = 1 to count do
    let t = !next in
    l.counts.(target) <- t;
    l.backs.(t) <- -1;
    for b = n - 1 downto 0 do
      let src = t lxor (1 lsl b) in
      if
        src < t
        && l.backs.(src) >= 0
        && (s.joins.(b) land src <> 0 || not (connects s src 0))
      then begin
        l.io.(Cost.slot_outer_rows) <- l.sizes.(src);
        edge s l ~mask:src ~bit:b keep
      end
    done;
    if l.backs.(t) >= 0 then incr reached;
    next := next_same_popcount t
  done;
  !reached

(* Copy [count] masks of one size, from [first] on, from [from]'s arrays
   into [l]'s. *)
let copy l ~from ~first ~count =
  let next = ref first in
  for _ = 1 to count do
    let m = !next in
    l.costs.(m) <- from.costs.(m);
    l.sizes.(m) <- from.sizes.(m);
    l.backs.(m) <- from.backs.(m);
    next := next_same_popcount m
  done

let reserve l entries =
  if Array.length l.backs < entries then begin
    l.costs <- Array.make entries 0.;
    l.sizes <- Array.make entries 0.;
    l.backs <- Array.make entries (-1)
  end

(* The helper domain (see the interface). A planner claims it by setting
   [job] to its space, then posts the [count] masks of a level that
   follow the first [skip], whose sources have [size] tables; the helper
   copies the sources from the planner's arrays into its own lane, prices
   its masks there, sets [reached] (-1 when it raised) and clears
   [posted]. The rest counts what it ran and allocated ([words.(1)] is
   the reading when a job starts). *)
type helper = {
  lock : Mutex.t;
  wake : Condition.t;
  job : space option Atomic.t;
  mutable posted : bool;
  mutable size : int;
  mutable skip : int;
  mutable count : int;
  mutable reached : int;
  mutable own : lane;
  mutable levels : int;
  mutable charged : int;
  mutable steps : int;
  words : float array;
}

let helper =
  {
    lock = Mutex.create ();
    wake = Condition.create ();
    job = Atomic.make None;
    posted = false;
    size = 0;
    skip = 0;
    count = 0;
    reached = 0;
    own = new_lane (Els.Kernel.lane ());
    levels = 0;
    charged = 0;
    steps = 0;
    words = [| 0.; 0. |];
  }

let run_job h l s =
  let n = Array.length s.tables in
  l.scratch <- Els.Kernel.fit l.scratch s.kernel;
  Els.Kernel.discard l.scratch;
  l.counts.(expanded) <- 0;
  reserve l (1 lsl n);
  copy l ~from:s.lane ~first:((1 lsl h.size) - 1) ~count:(choose n h.size);
  let first = ref ((1 lsl (h.size + 1)) - 1) in
  for _ = 1 to h.skip do
    first := next_same_popcount !first
  done;
  level s l ~first:!first ~count:h.count

let serve h =
  let l = new_lane (Els.Kernel.lane ()) in
  Mutex.lock h.lock;
  h.own <- l;
  while true do
    while not h.posted do
      Condition.wait h.wake h.lock
    done;
    Mutex.unlock h.lock;
    h.words.(1) <- Gc.minor_words ();
    (h.reached <-
       match Atomic.get h.job with
       | Some s -> ( try run_job h l s with _ -> -1)
       | None -> -1);
    if h.reached >= 0 then begin
      h.levels <- h.levels + 1;
      h.charged <- h.charged + l.counts.(expanded);
      h.steps <- h.steps + Els.Kernel.lane_steps l.scratch
    end;
    h.words.(0) <- h.words.(0) +. (Gc.minor_words () -. h.words.(1));
    Mutex.lock h.lock;
    h.posted <- false;
    Condition.signal h.wake
  done

(* Forced only by the planner that holds the helper, so never by two
   domains at once. *)
let spawned = lazy (Domain.spawn (fun () -> serve helper))

(* A level splits when the helper repays a round trip: a Mutex/Condition
   round trip to another domain costs about 7.5 µs on a 2-vCPU host,
   against about 120 ns per edge (a kernel step and three pricings), so
   handing over half of a level's E edges saves E/2 · 120 ns and pays once
   E ≥ 2 · 7.5 µs / 120 ns ≈ 125; twice that covers the copies between
   the lanes and the helper's wake-up jitter. A level's edges are at most
   its reached sources times the tables each lacks, exactly that on the
   equality chains PTC turns into cliques. *)
let split_edges = 256
let max_retained = 1 lsl 16
let helper_allowed = Domain.recommended_domain_count () >= 2
let holds s =
  match Atomic.get helper.job with Some j -> j == s | None -> false

(* The end of a call: the calling lane's kernel counts go to the
   profile's kernel, and the helper is released. *)
let settle s =
  Els.Kernel.absorb s.kernel s.lane.scratch;
  if holds s then Atomic.set helper.job None

(* Budgeted calls never split, so their charge order and anytime ladder
   stay serial, nor do calls over more tables than the per-mask arrays
   are retained for. *)
let splits s ~edges =
  helper_allowed && edges >= split_edges
  && 1 lsl Array.length s.tables <= max_retained
  && (match s.budget with None -> true | Some _ -> false)
  && (holds s
     || Atomic.compare_and_set helper.job None (Some s)
        &&
        match Lazy.force spawned with
        | _ -> true
        | exception Failure _ ->
          Atomic.set helper.job None;
          false)

(* A level split by rank: the calling lane prices the lower half, the
   helper the upper half (see the interface). *)
let two_lanes s ~size ~first ~count =
  let l = s.lane and h = helper in
  let half = count / 2 and before = l.counts.(expanded) in
  Els.Kernel.absorb s.kernel l.scratch;
  Mutex.lock h.lock;
  h.size <- size;
  h.skip <- half;
  h.count <- count - half;
  h.posted <- true;
  Condition.signal h.wake;
  Mutex.unlock h.lock;
  let mine = try level s l ~first ~count:half with _ -> -1 in
  Mutex.lock h.lock;
  while h.posted do
    Condition.wait h.wake h.lock
  done;
  Mutex.unlock h.lock;
  if mine < 0 || h.reached < 0 then begin
    l.counts.(expanded) <- before;
    Els.Kernel.discard l.scratch;
    level s l ~first ~count
  end
  else begin
    copy l ~from:h.own
      ~first:(next_same_popcount l.counts.(target))
      ~count:(count - half);
    l.counts.(expanded) <- l.counts.(expanded) + h.own.counts.(expanded);
    Els.Kernel.absorb s.kernel h.own.scratch;
    mine + h.reached
  end

type helper_stats = {
  levels : int;
  expansions : int;
  steps : int;
  minor_words : float;
}

let helper_stats () =
  let h = helper in
  { levels = h.levels; expansions = h.charged; steps = h.steps;
    minor_words = h.words.(0) }

(* Each domain keeps the lane of its last call for the next one;
   [Atomic.exchange] hands it to one call at a time and leaves [taken] in
   the slot (see the interface). *)
let taken = new_lane (Els.Kernel.lane ())

let spare : lane Atomic.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Atomic.make taken)

(* The calling domain's lane, fitted to [kernel]. *)
let take_lane kernel =
  let l = Atomic.exchange (Domain.DLS.get spare) taken in
  let l = if l == taken then new_lane (Els.Kernel.lane ()) else l in
  l.scratch <- Els.Kernel.fit l.scratch kernel;
  l.counts.(expanded) <- 0;
  l

let give_back l =
  if Array.length l.backs <= max_retained then
    Atomic.set (Domain.DLS.get spare) l

(* The steps and sizes a reached mask's back-pointers record, newest
   first. *)
let rec back_steps back m =
  if m = 0 then []
  else back.(m) :: back_steps back (m lxor (1 lsl back_bit back.(m)))

let rec back_history back sizes m =
  let outer = m lxor (1 lsl back_bit back.(m)) in
  if outer = 0 then [] else sizes.(m) :: back_history back sizes outer

(* The path the back-pointers record for a reached mask. *)
let path_of l mask =
  {
    steps = back_steps l.backs mask;
    history = back_history l.backs l.sizes mask;
    mask;
    size = l.sizes.(mask);
    cost = l.costs.(mask);
  }

(* Seed every table, then grow subsets in increasing size so every mask
   is final before it is extended. [count] is C(n, k+1), [reached] the
   reached masks of size k. [counts.(completed)] is the highest subset
   size whose entries are final: entries of size k+1 become final only
   once every size-k mask has been processed, so everything at or below
   it is identical no matter where a budget later trips — the anytime
   fallback only builds on these budget-independent states. *)
let enumerate s =
  let l = s.lane in
  let n = Array.length s.tables in
  l.counts.(completed) <- 0;
  for bit = 0 to n - 1 do
    charge s l;
    Els.Kernel.start_into s.kernel ~sizes:l.sizes ~bit;
    l.costs.(1 lsl bit) <- Cost.scan ~base_rows:s.base_rows.(bit);
    l.backs.(1 lsl bit) <- bit
  done;
  l.counts.(completed) <- 1;
  let count = ref n and reached = ref n in
  for k = 1 to n - 1 do
    boundary s;
    count := !count * (n - k) / (k + 1);
    let first = (1 lsl (k + 1)) - 1 in
    reached :=
      if splits s ~edges:(!reached * (n - k)) then
        two_lanes s ~size:k ~first ~count:!count
      else level s l ~first ~count:!count;
    l.counts.(completed) <- k + 1
  done

(* On exhaustion, the cheapest rung of the anytime ladder (see the
   interface): each candidate is budget-independent or a deterministic
   prefix of the expansion order, so a bigger budget never removes one,
   and ties keep the earlier rung. The rungs after the first are not
   charged. *)
let anytime_result s resource =
  let l = s.lane in
  let full = (1 lsl Array.length s.tables) - 1 in
  let attempt rung f =
    match f () with
    | p -> Some (rung, p)
    | exception Els.Els_error.Error _ -> None
  in
  let full_candidate =
    if l.backs.(full) >= 0 then Some (Provenance.Dp, path_of l full) else None
  in
  let cheapest_of_size k =
    let best = ref (-1) in
    let mask = ref ((1 lsl k) - 1) in
    while !mask <= full do
      let m = !mask in
      if l.backs.(m) >= 0 && (!best < 0 || not (l.costs.(!best) <= l.costs.(m)))
      then best := m;
      mask := next_same_popcount m
    done;
    !best
  in
  let completed = l.counts.(completed) in
  let completions =
    List.filter_map
      (fun k ->
        let mask = cheapest_of_size k in
        if mask < 0 then None
        else
          attempt Provenance.Greedy (fun () ->
              fst (greedy_complete (unbudgeted s) (path_of l mask))))
      (List.init completed (fun i -> completed - i))
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
        (fun (br, bp) (r, p') -> if p'.cost < bp.cost then (r, p') else (br, bp))
        (rung0, p0) rest
    in
    (node s p, Provenance.degraded rung resource ~expansions:(expansions s))

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
  let s =
    make_space ~who:"Dp.optimize" ?methods ?budget profile
      (Array.of_list query.Query.tables)
      take_lane
  in
  let l = s.lane in
  let full = (1 lsl n) - 1 in
  reserve l (full + 1);
  (* Only [backs] is refilled: every read of a cost or a size sits behind
     a [back >= 0] test, so their stale entries are never seen. *)
  Array.fill l.backs 0 (full + 1) (-1);
  let result =
    match enumerate s with
    | () ->
      settle s;
      if l.backs.(full) >= 0 then
        ( node s (path_of l full),
          Provenance.completed Provenance.Dp ~expansions:(expansions s) )
      else
        (* Reachable only when [methods] lacks nested loop and some subset
           has no equi-connected extension. *)
        no_method_error s.methods (Array.to_list s.tables)
    | exception Rel.Budget.Exhausted resource ->
      settle s;
      anytime_result s resource
    | exception e ->
      let backtrace = Printexc.get_raw_backtrace () in
      settle s;
      Printexc.raise_with_backtrace e backtrace
  in
  give_back l;
  result

let optimize ?methods ?budget profile query =
  fst (optimize_traced ?methods ?budget profile query)
