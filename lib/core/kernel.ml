(* The step engine over compiled flat arrays. Everything here is written
   to keep the hot paths free of minor-heap allocation in native code:

   - floats never escape into a function call on the pass path: loop state
     lives in float-array scratch slots ([acc], [class_acc]) and locals
     used only in float ops, both of which ocamlopt keeps unboxed;
   - no refs, no local closures, no lists — accumulation uses [for]
     loops;
   - per-class accumulation reuses stamped scratch arrays ([class_acc] /
     [class_stamp] / [touched]), invalidated in O(1) by bumping [stamp];
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

(* Scratch slot indices in [acc]. *)
let slot_result = 0 (* combined selectivity, then final size *)
let slot_left = 1
let slot_right = 2
let slot_upper = 3
let slot_bound = 4 (* a degree arm's bound, folded over the step's terms *)

type t = {
  n_tables : int;
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
  guard : Guard.t;
  (* Stamped scratch: [class_acc.(c)] is valid iff
     [class_stamp.(c) = stamp]; [touched.(0 .. n_touched-1)] lists the
     classes of the current step in first-occurrence order. *)
  class_acc : float array;
  class_stamp : int array;
  touched : int array;
  mutable stamp : int;
  mutable n_touched : int;
  mutable n_terms : int;  (* degree terms folded into [slot_bound] *)
  acc : float array;  (* see slot_* above *)
  mutable steps : int;
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
  Array.iter
    (fun p ->
      if p < 0 || p >= n_preds then
        invalid_arg "Kernel.make: adj_pred index out of range")
    adj_pred;
  Array.iter
    (fun c ->
      if c < 0 || c >= n_classes then
        invalid_arg "Kernel.make: pred_class out of range")
    pred_class;
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
    n_tables;
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
    guard;
    class_acc = Array.make (max 1 n_classes) 0.;
    class_stamp = Array.make (max 1 n_classes) 0;
    touched = Array.make (max 1 n_classes) 0;
    stamp = 0;
    n_touched = 0;
    n_terms = 0;
    acc = Array.make 5 0.;
    steps = 0;
  }

let table_count k = k.n_tables
let table_rows k bit = k.rows.(bit)
let steps k = k.steps

(* Fold the predicate at dense index [p] into its class accumulator. No
   float parameters or returns, so the call itself never boxes. *)
let accum_pred k p =
  let c = k.pred_class.(p) in
  let s = k.pred_sel.(p) in
  if k.class_stamp.(c) <> k.stamp then begin
    k.class_stamp.(c) <- k.stamp;
    k.touched.(k.n_touched) <- c;
    k.n_touched <- k.n_touched + 1;
    (* Seed exactly as each combine's fold does on its first member:
       M:    1. *. s = s (bit-exact identity, NaN included)
       SS:   Float.min 1. s — which is 1. when s > 1 (possible under Trap)
       LS:   seeds from the head directly
       PESS: classes contribute 1; the bound lives in the cap. *)
    match k.combine with
    | Product | Largest -> k.class_acc.(c) <- s
    | Smallest -> k.class_acc.(c) <- Float.min 1. s
    | Unit -> k.class_acc.(c) <- 1.
  end
  else
    match k.combine with
    | Product -> k.class_acc.(c) <- k.class_acc.(c) *. s
    | Smallest -> k.class_acc.(c) <- Float.min k.class_acc.(c) s
    | Largest -> k.class_acc.(c) <- Float.max k.class_acc.(c) s
    | Unit -> ()

(* Breach path of [finish_classes], out of line so the loop never passes a
   float to a call: re-guards [class_acc.(c)] through the shared Guard,
   with the reference tier's site. *)
let fix_class k c =
  k.class_acc.(c) <-
    Guard.selectivity k.guard ~site:"Profile.class_selectivity"
      k.class_acc.(c)

(* Multiply the per-class results (first-occurrence order) into
   [acc.(slot_result)], guarding each class value exactly like the
   reference tier guards an estimator-combined class. *)
let finish_classes k =
  k.acc.(slot_result) <- 1.;
  for i = 0 to k.n_touched - 1 do
    let c = k.touched.(i) in
    (* [not (in range)] and not [< 0. || > 1.]: NaN must breach. *)
    if not (k.class_acc.(c) >= 0. && k.class_acc.(c) <= 1.) then
      fix_class k c;
    k.acc.(slot_result) <- k.acc.(slot_result) *. k.class_acc.(c)
  done

(* Accumulate every predicate linking [bit] to [mask]; the combined
   selectivity lands in [acc.(slot_result)], bridging in [n_touched]. *)
let accumulate k ~mask ~bit =
  k.stamp <- k.stamp + 1;
  k.n_touched <- 0;
  for i = k.adj_off.(bit) to k.adj_off.(bit + 1) - 1 do
    if mask land k.adj_other_mask.(i) <> 0 then accum_pred k k.adj_pred.(i)
  done;
  finish_classes k

(* Whether predicate [p] has one endpoint in each of two disjoint masks. *)
let bridges k p ~mask1 ~mask2 =
  let a = k.pred_mask_a.(p) and b = k.pred_mask_b.(p) in
  (mask1 land a <> 0 && mask2 land b <> 0)
  || (mask1 land b <> 0 && mask2 land a <> 0)

(* Same, for the predicates bridging two disjoint masks. Scans the full
   conjunction in ascending id order, matching the reference tier's
   conjunction scan. *)
let accumulate_between k ~mask1 ~mask2 =
  k.stamp <- k.stamp + 1;
  k.n_touched <- 0;
  for p = 0 to Array.length k.pred_sel - 1 do
    if bridges k p ~mask1 ~mask2 then accum_pred k p
  done;
  finish_classes k

(* Breach path of [finish_size]: reads the out-of-range size and its
   cartesian bound back from the scratch slots, so the hot loop never
   boxes them for this call. *)
let breach_size k ~site =
  k.acc.(slot_result) <-
    Guard.cardinality ~upper:k.acc.(slot_upper) k.guard ~site
      k.acc.(slot_result)

(* Fold predicate [p]'s degree term, if it has one, into
   [acc.(slot_bound)] for a step whose already-joined side is [mask1]:
   the reference tier's orientation (joined side a, new side b), and its
   caps' [Float.min bound term] argument order. Ent's term is
   min(left · L∞(new side), right · L∞(joined side)) from the step's
   rows. No float parameters or returns. *)
let fold_term k p ~mask1 =
  let left_mask = k.term_mask.(p) in
  if left_mask <> 0 then begin
    k.n_terms <- k.n_terms + 1;
    let joined_left = mask1 land left_mask <> 0 in
    let a = k.term_a.(p) and b = k.term_b.(p) in
    k.acc.(slot_bound) <-
      Float.min k.acc.(slot_bound)
        (match k.cap with
        | Ent ->
          let left = k.acc.(slot_left) and right = k.acc.(slot_right) in
          if joined_left then Float.min (left *. b) (right *. a)
          else Float.min (left *. a) (right *. b)
        | Lp2 | Degseq | No_cap | Min_rows -> if joined_left then a else b)
  end

(* A degree arm's bound in [acc.(slot_bound)]. LP2 seeds it with
   min-rows; DEGSEQ and ENT seed it at +∞ and fall back to min-rows when
   no bridging predicate has a term. The terms fold in ascending
   predicate order: an extend ([bit] ≥ 0, [mask2] = its mask) walks
   [bit]'s adjacency slice, a join ([bit] < 0) scans the conjunction. *)
let degree_bound k ~mask1 ~mask2 ~bit =
  let min_rows = Float.min k.acc.(slot_left) k.acc.(slot_right) in
  k.n_terms <- 0;
  k.acc.(slot_bound) <-
    (match k.cap with
    | Lp2 -> min_rows
    | Degseq | Ent | No_cap | Min_rows -> Float.infinity);
  if bit >= 0 then
    for i = k.adj_off.(bit) to k.adj_off.(bit + 1) - 1 do
      if mask1 land k.adj_other_mask.(i) <> 0 then
        fold_term k k.adj_pred.(i) ~mask1
    done
  else
    for p = 0 to Array.length k.term_mask - 1 do
      if bridges k p ~mask1 ~mask2 then fold_term k p ~mask1
    done;
  if k.n_terms = 0 then k.acc.(slot_bound) <- min_rows

(* Turn the combined selectivity in [acc.(slot_result)] plus the two input
   sizes in [acc.(slot_left)]/[acc.(slot_right)] into the step's output
   size, in place: raw = left *. right *. s (the reference tier's
   association), capped on bridged steps, then guarded against the
   cartesian upper bound. [mask1]/[mask2] are the step's two sides and
   [bit] the new table of an extend (-1 for a join), read only by the
   degree arms. *)
let finish_size k ~site ~mask1 ~mask2 ~bit =
  let left = k.acc.(slot_left) and right = k.acc.(slot_right) in
  k.acc.(slot_result) <- left *. right *. k.acc.(slot_result);
  if k.n_touched > 0 then begin
    match k.cap with
    | No_cap -> ()
    | Min_rows ->
      k.acc.(slot_result) <-
        Float.min k.acc.(slot_result) (Float.min left right)
    | Lp2 | Degseq | Ent ->
      degree_bound k ~mask1 ~mask2 ~bit;
      k.acc.(slot_result) <- Float.min k.acc.(slot_result) k.acc.(slot_bound)
  end;
  let capped = k.acc.(slot_result) in
  let upper = left *. right in
  k.acc.(slot_upper) <- upper;
  if not (capped >= 0. && capped <= upper) then breach_size k ~site

let step_selectivity k ~mask ~bit =
  k.steps <- k.steps + 1;
  accumulate k ~mask ~bit;
  k.acc.(slot_result)

let extend_size k ~mask ~bit ~size =
  k.steps <- k.steps + 1;
  accumulate k ~mask ~bit;
  k.acc.(slot_left) <- size;
  k.acc.(slot_right) <- k.rows.(bit);
  finish_size k ~site:"Incremental.extend" ~mask1:mask ~mask2:(1 lsl bit)
    ~bit;
  k.acc.(slot_result)

let join_size k ~mask1 ~mask2 ~size1 ~size2 =
  k.steps <- k.steps + 1;
  accumulate_between k ~mask1 ~mask2;
  k.acc.(slot_left) <- size1;
  k.acc.(slot_right) <- size2;
  finish_size k ~site:"Incremental.join_states" ~mask1 ~mask2 ~bit:(-1);
  k.acc.(slot_result)

let start_into k ~sizes ~bit = sizes.(1 lsl bit) <- k.rows.(bit)

let extend_into_slot k ~mask ~bit ~io ~src ~dst =
  k.steps <- k.steps + 1;
  accumulate k ~mask ~bit;
  k.acc.(slot_left) <- io.(src);
  k.acc.(slot_right) <- k.rows.(bit);
  finish_size k ~site:"Incremental.extend" ~mask1:mask ~mask2:(1 lsl bit)
    ~bit;
  io.(dst) <- k.acc.(slot_result)

let extend_into k ~sizes ~mask ~bit =
  extend_into_slot k ~mask ~bit ~io:sizes ~src:mask
    ~dst:(mask lor (1 lsl bit))
