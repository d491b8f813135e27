(* The step engine over compiled flat arrays. Everything here is written
   to keep the hot paths free of minor-heap allocation in native code:

   - floats never escape into a function call on the pass path: loop state
     lives in a lane's float scratch slots ([acc]) and locals used only in
     float ops, both of which ocamlopt keeps unboxed;
   - no refs, no local closures, no lists — accumulation uses [for]
     loops;
   - per-class accumulation reuses stamped slots of the lane's arrays,
     invalidated in O(1) by bumping its stamp;
   - guard checks are hand-inlined on the in-range path; the out-of-line
     [Guard.*] call happens only on a breach (reading its arguments back
     from the scratch slots), so strictness semantics, violation counters
     and error messages stay those of the reference tier;
   - the degree arms ([Lp2], [Degseq], [Ent]) read per-predicate terms
     that [make] computes once from the degree statistics, so a step only
     folds [Float.min] over floats already in arrays.

   [Float.min]/[Float.max] are the stdlib's: they are [@inline], so they
   box nothing (the allocation audits in test_kernel and F12 measure it).

   Bit-identity with the list-scan reference tier in [Incremental]
   requires replicating its exact IEEE evaluation order: selectivities
   combine per class first (classes in first-occurrence order of the
   ascending predicate scan, members in ascending id order, each fold
   seeded exactly as the reference tier's combine fold seeds it — note SS
   folds from 1.0, so its first member is [Float.min 1. s], not [s]) and
   the per-class results multiply left-to-right onto 1.0. A flat product
   across all predicates would round differently. The degree arms fold
   their terms in ascending predicate order with the reference caps'
   argument order, for the same reason. *)

(* The estimator's arms, re-exported so the step engine matches on them
   unqualified. *)
type combine = Estimator.combine = Product | Smallest | Largest | Unit
type cap = Estimator.cap = No_cap | Min_rows | Lp2 | Degseq | Ent

(* A lane: what one stepping domain writes, in two arrays with [pad]
   words clear at either end, so that a cache line holding a written slot
   holds no other object wherever the arrays end up (an object lives
   where the domain that promotes it puts it), and two domains stepping
   one kernel never share a line. [acc] holds the step's scratch slots,
   then from [class_slot] one accumulator per class, valid iff the class's
   stamp in [ints] equals [ints.(stamp)]; [ints] holds four counters, the
   class stamps from [stamp_slot], and from [touched] the classes the
   current step touched, in first-occurrence order. *)
let pad = 8
let slot_result = pad (* combined selectivity, then final size *)
let slot_left = pad + 1
let slot_right = pad + 2
let slot_upper = pad + 3
let slot_bound = pad + 4 (* a degree arm's bound, folded over the step's terms *)
let class_slot = pad + 5
let stamp = pad
let n_touched = pad + 1
let n_terms = pad + 2 (* degree terms folded into [slot_bound] *)
let steps_slot = pad + 3
let stamp_slot = pad + 4

type lane = {
  guard : Guard.t;
  classes : int;
  touched : int;
  acc : float array;
  ints : int array;
}

(* The compiled arrays, read-only once [make] returns, and the kernel's
   own lane. *)
type t = {
  rows : float array;  (* bit -> ‖R‖′ *)
  (* CSR adjacency: table [bit]'s join predicates are the dense indices
     [adj_pred.(adj_off.(bit)) .. adj_pred.(adj_off.(bit+1) - 1)], in
     working-conjunction order; [adj_other_mask] is the single-bit mask of
     each predicate's other endpoint, same slots. *)
  adj_off : int array;
  adj_pred : int array;
  adj_other_mask : int array;
  (* Per join predicate, dense index in ascending conjunction order. *)
  pred_sel : float array;
  pred_class : int array;
  pred_mask_a : int array;
  pred_mask_b : int array;
  (* Per join predicate, for the degree arms only (empty otherwise),
     computed once by [make] from [pred_degrees]: its left column's table
     mask, 0 when it has no term (no degree pair), and two floats, never
     read without a term. Lp2 and Degseq store the term with the left column
     on a step's joined side ([term_a]) and on its new side ([term_b]);
     Ent stores the L∞ of the left ([term_a]) and right ([term_b])
     columns. *)
  term_mask : int array;
  term_a : float array;
  term_b : float array;
  combine : combine;
  cap : cap;
  n_classes : int;
  own : lane;
}

let new_lane guard n_classes =
  let classes = max 1 n_classes in
  {
    guard;
    classes;
    touched = stamp_slot + classes;
    acc = Array.make (class_slot + classes + pad) 0.;
    ints = Array.make (stamp_slot + (2 * classes) + pad) 0;
  }

(* A degree arm's two per-predicate floats from the left and right
   columns' statistics (see [term_a]/[term_b]). *)
let degree_terms cap dl dr =
  match cap with
  | Lp2 ->
    ( Stats.Degree.l2 dl *. Stats.Degree.l2 dr,
      Stats.Degree.l2 dr *. Stats.Degree.l2 dl )
  | Degseq -> (Stats.Degree.join_bound dl dr, Stats.Degree.join_bound dr dl)
  | Ent -> (Stats.Degree.linf dl, Stats.Degree.linf dr)
  | No_cap | Min_rows -> invalid_arg "Kernel.degree_terms"

let make ~rows ~adj_off ~adj_pred ~adj_other_mask ~pred_sel ~pred_class
    ~pred_mask_a ~pred_mask_b ~pred_degrees ~n_classes ~combine ~cap ~guard =
  let n_tables = Array.length rows in
  let n_preds = Array.length pred_sel in
  let n_slots = Array.length adj_pred in
  let degree_arm =
    match cap with Lp2 | Degseq | Ent -> true | No_cap | Min_rows -> false
  in
  if Array.length adj_off <> n_tables + 1 then
    invalid_arg "Kernel.make: adj_off must have n_tables + 1 entries";
  if n_tables > 0 && (adj_off.(0) <> 0 || adj_off.(n_tables) <> n_slots) then
    invalid_arg "Kernel.make: adj_off does not span adj_pred";
  if Array.length adj_other_mask <> n_slots then
    invalid_arg "Kernel.make: adj_other_mask/adj_pred length mismatch";
  if
    Array.length pred_class <> n_preds
    || Array.length pred_mask_a <> n_preds
    || Array.length pred_mask_b <> n_preds
    || (degree_arm && Array.length pred_degrees <> n_preds)
  then invalid_arg "Kernel.make: per-predicate array length mismatch";
  for i = 0 to n_slots - 1 do
    if adj_pred.(i) < 0 || adj_pred.(i) >= n_preds then
      invalid_arg "Kernel.make: adj_pred index out of range"
  done;
  for p = 0 to n_preds - 1 do
    if pred_class.(p) < 0 || pred_class.(p) >= n_classes then
      invalid_arg "Kernel.make: pred_class out of range"
  done;
  let n_terms = if degree_arm then n_preds else 0 in
  let term_mask = Array.make n_terms 0 in
  let term_a = Array.make n_terms 0. and term_b = Array.make n_terms 0. in
  if degree_arm then
    Array.iteri
      (fun p degrees ->
        match degrees with
        | Some (left_mask, dl, dr) ->
          let a, b = degree_terms cap dl dr in
          term_mask.(p) <- left_mask;
          term_a.(p) <- a;
          term_b.(p) <- b
        | None -> ())
      pred_degrees;
  {
    rows;
    adj_off;
    adj_pred;
    adj_other_mask;
    pred_sel;
    pred_class;
    pred_mask_a;
    pred_mask_b;
    term_mask;
    term_a;
    term_b;
    combine;
    cap;
    n_classes;
    own = new_lane guard n_classes;
  }

let steps k = k.own.ints.(steps_slot)
let own k = k.own

let lane () = new_lane (Guard.create Config.Strict) 0

let fit l k =
  if l.classes >= k.n_classes && Guard.mode l.guard = Guard.mode k.own.guard
  then l
  else new_lane (Guard.create (Guard.mode k.own.guard)) k.n_classes

let lane_steps l = l.ints.(steps_slot)

let discard l =
  l.ints.(steps_slot) <- 0;
  Guard.clear l.guard

let absorb k l =
  if l != k.own then begin
    k.own.ints.(steps_slot) <- k.own.ints.(steps_slot) + l.ints.(steps_slot);
    Guard.absorb ~into:k.own.guard l.guard;
    l.ints.(steps_slot) <- 0
  end

(* Fold the predicate at dense index [p] into its class accumulator. No
   float parameters or returns, so the call itself never boxes. *)
let accum_pred k l p =
  let c = k.pred_class.(p) in
  let s = k.pred_sel.(p) in
  let ints = l.ints and acc = l.acc in
  if ints.(stamp_slot + c) <> ints.(stamp) then begin
    ints.(stamp_slot + c) <- ints.(stamp);
    ints.(l.touched + ints.(n_touched)) <- c;
    ints.(n_touched) <- ints.(n_touched) + 1;
    (* Seed exactly as each combine's fold does on its first member:
       M:    1. *. s = s (bit-exact identity, NaN included)
       SS:   Float.min 1. s — which is 1. when s > 1 (possible under Trap)
       LS:   seeds from the head directly
       PESS: classes contribute 1; the bound lives in the cap. *)
    match k.combine with
    | Product | Largest -> acc.(class_slot + c) <- s
    | Smallest -> acc.(class_slot + c) <- Float.min 1. s
    | Unit -> acc.(class_slot + c) <- 1.
  end
  else
    match k.combine with
    | Product -> acc.(class_slot + c) <- acc.(class_slot + c) *. s
    | Smallest -> acc.(class_slot + c) <- Float.min acc.(class_slot + c) s
    | Largest -> acc.(class_slot + c) <- Float.max acc.(class_slot + c) s
    | Unit -> ()

(* Breach path of [finish_classes], out of line so the loop never passes a
   float to a call: re-guards class [c]'s accumulator through the lane's
   Guard, with the reference tier's site. *)
let fix_class l c =
  l.acc.(class_slot + c) <-
    Guard.selectivity l.guard ~site:"Profile.class_selectivity"
      l.acc.(class_slot + c)

(* Multiply the per-class results (first-occurrence order) into
   [acc.(slot_result)], guarding each class value exactly like the
   reference tier guards an estimator-combined class. *)
let finish_classes l =
  let acc = l.acc in
  acc.(slot_result) <- 1.;
  for i = 0 to l.ints.(n_touched) - 1 do
    let c = l.ints.(l.touched + i) in
    (* [not (in range)] and not [< 0. || > 1.]: NaN must breach. *)
    if not (acc.(class_slot + c) >= 0. && acc.(class_slot + c) <= 1.) then
      fix_class l c;
    acc.(slot_result) <- acc.(slot_result) *. acc.(class_slot + c)
  done

(* Accumulate every predicate linking [bit] to [mask]; the combined
   selectivity lands in [acc.(slot_result)], bridging in [n_touched]. *)
let accumulate k l ~mask ~bit =
  l.ints.(stamp) <- l.ints.(stamp) + 1;
  l.ints.(n_touched) <- 0;
  for i = k.adj_off.(bit) to k.adj_off.(bit + 1) - 1 do
    if mask land k.adj_other_mask.(i) <> 0 then accum_pred k l k.adj_pred.(i)
  done;
  finish_classes l

(* Whether predicate [p] has one endpoint in each of two disjoint masks. *)
let bridges k p ~mask1 ~mask2 =
  let a = k.pred_mask_a.(p) and b = k.pred_mask_b.(p) in
  (mask1 land a <> 0 && mask2 land b <> 0)
  || (mask1 land b <> 0 && mask2 land a <> 0)

(* Same, for the predicates bridging two disjoint masks. Scans the full
   conjunction in ascending id order, matching the reference tier's
   conjunction scan. *)
let accumulate_between k l ~mask1 ~mask2 =
  l.ints.(stamp) <- l.ints.(stamp) + 1;
  l.ints.(n_touched) <- 0;
  for p = 0 to Array.length k.pred_sel - 1 do
    if bridges k p ~mask1 ~mask2 then accum_pred k l p
  done;
  finish_classes l

(* Breach path of [finish_size]: reads the out-of-range size and its
   cartesian bound back from the scratch slots, so the hot loop never
   boxes them for this call. *)
let breach_size l ~site =
  l.acc.(slot_result) <-
    Guard.cardinality ~upper:l.acc.(slot_upper) l.guard ~site
      l.acc.(slot_result)

(* Fold predicate [p]'s degree term, if it has one, into
   [acc.(slot_bound)] for a step whose already-joined side is [mask1]:
   the reference tier's orientation (joined side a, new side b), and its
   caps' [Float.min bound term] argument order. Ent's term is
   min(left · L∞(new side), right · L∞(joined side)) from the step's
   rows. No float parameters or returns. *)
let fold_term k l p ~mask1 =
  let left_mask = k.term_mask.(p) in
  if left_mask <> 0 then begin
    l.ints.(n_terms) <- l.ints.(n_terms) + 1;
    let joined_left = mask1 land left_mask <> 0 in
    let a = k.term_a.(p) and b = k.term_b.(p) in
    l.acc.(slot_bound) <-
      Float.min l.acc.(slot_bound)
        (match k.cap with
        | Ent ->
          let left = l.acc.(slot_left) and right = l.acc.(slot_right) in
          if joined_left then Float.min (left *. b) (right *. a)
          else Float.min (left *. a) (right *. b)
        | Lp2 | Degseq | No_cap | Min_rows -> if joined_left then a else b)
  end

(* A degree arm's bound in [acc.(slot_bound)]. LP2 seeds it with
   min-rows; DEGSEQ and ENT seed it at +∞ and fall back to min-rows when
   no bridging predicate has a term. The terms fold in ascending
   predicate order: an extend ([bit] ≥ 0, [mask2] = its mask) walks
   [bit]'s adjacency slice, a join ([bit] < 0) scans the conjunction. *)
let degree_bound k l ~mask1 ~mask2 ~bit =
  let min_rows = Float.min l.acc.(slot_left) l.acc.(slot_right) in
  l.ints.(n_terms) <- 0;
  l.acc.(slot_bound) <-
    (match k.cap with
    | Lp2 -> min_rows
    | Degseq | Ent | No_cap | Min_rows -> Float.infinity);
  if bit >= 0 then
    for i = k.adj_off.(bit) to k.adj_off.(bit + 1) - 1 do
      if mask1 land k.adj_other_mask.(i) <> 0 then
        fold_term k l k.adj_pred.(i) ~mask1
    done
  else
    for p = 0 to Array.length k.term_mask - 1 do
      if bridges k p ~mask1 ~mask2 then fold_term k l p ~mask1
    done;
  if l.ints.(n_terms) = 0 then l.acc.(slot_bound) <- min_rows

(* Turn the combined selectivity in [acc.(slot_result)] plus the two input
   sizes in [acc.(slot_left)]/[acc.(slot_right)] into the step's output
   size, in place: raw = left *. right *. s (the reference tier's
   association), capped on bridged steps, then guarded against the
   cartesian upper bound. [mask1]/[mask2] are the step's two sides and
   [bit] the new table of an extend (-1 for a join), read only by the
   degree arms. *)
let finish_size k l ~site ~mask1 ~mask2 ~bit =
  let left = l.acc.(slot_left) and right = l.acc.(slot_right) in
  l.acc.(slot_result) <- left *. right *. l.acc.(slot_result);
  if l.ints.(n_touched) > 0 then begin
    match k.cap with
    | No_cap -> ()
    | Min_rows ->
      l.acc.(slot_result) <-
        Float.min l.acc.(slot_result) (Float.min left right)
    | Lp2 | Degseq | Ent ->
      degree_bound k l ~mask1 ~mask2 ~bit;
      l.acc.(slot_result) <- Float.min l.acc.(slot_result) l.acc.(slot_bound)
  end;
  let capped = l.acc.(slot_result) in
  let upper = left *. right in
  l.acc.(slot_upper) <- upper;
  if not (capped >= 0. && capped <= upper) then breach_size l ~site

let step_selectivity k ~mask ~bit =
  let l = k.own in
  l.ints.(steps_slot) <- l.ints.(steps_slot) + 1;
  accumulate k l ~mask ~bit;
  l.acc.(slot_result)

let extend_size k ~mask ~bit ~size =
  let l = k.own in
  l.ints.(steps_slot) <- l.ints.(steps_slot) + 1;
  accumulate k l ~mask ~bit;
  l.acc.(slot_left) <- size;
  l.acc.(slot_right) <- k.rows.(bit);
  finish_size k l ~site:"Incremental.extend" ~mask1:mask ~mask2:(1 lsl bit)
    ~bit;
  l.acc.(slot_result)

let join_size k ~mask1 ~mask2 ~size1 ~size2 =
  let l = k.own in
  l.ints.(steps_slot) <- l.ints.(steps_slot) + 1;
  accumulate_between k l ~mask1 ~mask2;
  l.acc.(slot_left) <- size1;
  l.acc.(slot_right) <- size2;
  finish_size k l ~site:"Incremental.join_states" ~mask1 ~mask2 ~bit:(-1);
  l.acc.(slot_result)

let start_into k ~sizes ~bit = sizes.(1 lsl bit) <- k.rows.(bit)

let extend_into_slot k l ~mask ~bit ~io ~src ~dst =
  l.ints.(steps_slot) <- l.ints.(steps_slot) + 1;
  accumulate k l ~mask ~bit;
  l.acc.(slot_left) <- io.(src);
  l.acc.(slot_right) <- k.rows.(bit);
  finish_size k l ~site:"Incremental.extend" ~mask1:mask ~mask2:(1 lsl bit)
    ~bit;
  io.(dst) <- l.acc.(slot_result)

let extend_into k ~sizes ~mask ~bit =
  extend_into_slot k k.own ~mask ~bit ~io:sizes ~src:mask
    ~dst:(mask lor (1 lsl bit))
