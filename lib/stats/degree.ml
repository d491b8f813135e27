(* Degree-sequence statistics of one join column: for every distinct
   non-null value v, its degree d(v) = number of rows carrying v. The
   norms of that sequence are what the modern worst-case join bounds
   consume; the top-k heaviest entries are kept value-keyed so shard
   statistics can be merged (the same reason Mcv keys by value). *)

type t = {
  l1 : float;
  l2_sq : float;
  linf : float;
  top : (Rel.Value.t * float) array;
  k : int;
  complete : bool;
}

let default_k = 32

let l1 t = t.l1
let l2 t = Float.sqrt t.l2_sq
let l2_sq t = t.l2_sq
let linf t = t.linf
let complete t = t.complete
let tracked t = Array.to_list t.top
let top_degrees t = Array.map snd t.top

(* [of_counts]' running state: the heaviest entries so far in two parallel
   arrays, so that placing one allocates nothing, and the norms (L1, L2²,
   L∞) in a float array, so that adding to them allocates nothing either. *)
type acc = {
  values : Rel.Value.t array;
  degrees : float array;
  norms : float array;
  mutable tracked : int;
  mutable entries : int;
}

let acc k =
  { values = Array.make (max k 0) Rel.Value.Null; degrees = Array.make (max k 0) 0.;
    norms = Array.make 3 0.; tracked = 0; entries = 0 }

(* Whether [(v, d)] sorts strictly before slot [i]: heaviest first, ties in
   value order, so no hash-table order changes a build or a merge. Without
   the [float] annotation the comparison is polymorphic, is not inlined,
   and boxes every offered degree. *)
let[@inline] before a v (d : float) i =
  d > a.degrees.(i) || (d = a.degrees.(i) && Rel.Value.compare v a.values.(i) < 0)

(* An entry belongs in the top when a slot is free or it sorts strictly
   before the last one, so an entry of the untracked tail costs one
   comparison. It goes into slot [tracked], or over the last slot when all
   are filled, and moves up past every entry it sorts strictly before. An
   entry stays behind an equal one placed earlier, so the slots hold the
   k-prefix of a stable sort of every entry offered. *)
let[@inline] offer a v (d : float) =
  let k = Array.length a.values in
  if a.tracked < k || (k > 0 && before a v d (k - 1)) then begin
    let i = ref (min a.tracked (k - 1)) in
    while !i > 0 && before a v d (!i - 1) do
      a.values.(!i) <- a.values.(!i - 1);
      a.degrees.(!i) <- a.degrees.(!i - 1);
      decr i
    done;
    a.values.(!i) <- v;
    a.degrees.(!i) <- d;
    a.tracked <- min (a.tracked + 1) k
  end

let chosen a = Array.init a.tracked (fun i -> (a.values.(i), a.degrees.(i)))

(* The per-entry step of [of_counts] and [of_table]. *)
let[@inline] step a v c =
  if c > 0 && not (Rel.Value.is_null v) then begin
    let d = float_of_int c in
    a.norms.(0) <- a.norms.(0) +. d;
    a.norms.(1) <- a.norms.(1) +. (d *. d);
    if d > a.norms.(2) then a.norms.(2) <- d;
    a.entries <- a.entries + 1;
    offer a v d
  end

let finish a k =
  { l1 = a.norms.(0); l2_sq = a.norms.(1); linf = a.norms.(2); top = chosen a;
    k; complete = a.entries <= k }

(* The top-k is selected, not sorted. *)
let of_counts ?(k = default_k) counts =
  let a = acc k in
  List.iter (fun (v, c) -> step a v c) counts;
  finish a k

(* Table order changes no bit: the norms are sums of integer-valued floats,
   exact below 2^53, and the top-k order is total over distinct values. *)
let of_table ?(k = default_k) (t : Count_table.t) =
  let a = acc k in
  for i = 0 to t.slots - 1 do
    step a t.keys.(i) t.counts.(i)
  done;
  finish a k

let of_values ?k values = Count_table.count values (of_table ?k)

(* Shard merge. A value split across shards has its true degree only if
   both shards track it, so:
   - L1 is exact (degrees add, tracked or not);
   - L∞ and L2² are computed exactly whenever both inputs are [complete]
     (every distinct value tracked), and are lower bounds otherwise: the
     cross terms of untracked split values are unknown and omitted;
   - the top-k is the heaviest k of the merged tracked entries — each
     merged degree is a lower bound of the true degree of that value. *)
let merge a b =
  let k = max a.k b.k in
  let amap = Hashtbl.create 64 in
  Array.iter (fun (v, d) -> Hashtbl.replace amap v d) a.top;
  let union = Hashtbl.create 64 in
  Array.iter (fun (v, d) -> Hashtbl.replace union v d) a.top;
  let cross = ref 0. in
  Array.iter
    (fun (v, db) ->
      match Hashtbl.find_opt amap v with
      | Some da ->
        cross := !cross +. (da *. db);
        Hashtbl.replace union v (da +. db)
      | None -> Hashtbl.add union v db)
    b.top;
  let heaviest = acc k in
  Hashtbl.iter (fun v d -> offer heaviest v d) union;
  let top = chosen heaviest in
  let tracked_max = if heaviest.tracked > 0 then snd top.(0) else 0. in
  {
    l1 = a.l1 +. b.l1;
    l2_sq = a.l2_sq +. b.l2_sq +. (2. *. !cross);
    linf = Float.max tracked_max (Float.max a.linf b.linf);
    top;
    k;
    complete = a.complete && b.complete && Hashtbl.length union <= k;
  }

(* Upper bound on the join size of two columns from their degree
   sequences: sum of the descending sequences' pairwise products
   Σᵢ aᵢ·bᵢ (the maximal coupling — Instance Optimal Join Size
   Estimation's two-approximation). The first k₀ = min(|top a|, |top b|)
   terms are taken exactly from the tracked entries; every later aᵢ is at
   most the smallest degree that could still appear there, so the tail is
   capped by min(tail-mass(a)·tail-max(b), tail-mass(b)·tail-max(a)). *)
let join_bound a b =
  let ta = Array.map snd a.top and tb = Array.map snd b.top in
  let k0 = min (Array.length ta) (Array.length tb) in
  let pairwise = ref 0. in
  for i = 0 to k0 - 1 do
    pairwise := !pairwise +. (ta.(i) *. tb.(i))
  done;
  let tail arr l1 =
    let tracked = ref 0. in
    for i = 0 to k0 - 1 do
      tracked := !tracked +. arr.(i)
    done;
    let mass = Float.max 0. (l1 -. !tracked) in
    let dmax =
      if mass <= 0. then 0.
      else if Array.length arr > k0 then arr.(k0)
      else if k0 > 0 then arr.(k0 - 1)
      else l1
    in
    (mass, dmax)
  in
  let mass_a, max_a = tail ta a.l1 in
  let mass_b, max_b = tail tb b.l1 in
  !pairwise +. Float.min (mass_a *. max_b) (mass_b *. max_a)

let pp ppf t =
  Format.fprintf ppf "{l1=%g l2=%g linf=%g top=%d/%d%s}" t.l1 (l2 t) t.linf
    (Array.length t.top) t.k
    (if t.complete then " complete" else "")
