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
let capacity t = t.k
let complete t = t.complete
let tracked t = Array.to_list t.top
let top_degrees t = Array.map snd t.top

(* Heaviest first; ties broken by value order so builds and merges are
   deterministic regardless of hash-table iteration order. *)
let by_degree (va, da) (vb, db) =
  match Float.compare db da with 0 -> Rel.Value.compare va vb | c -> c

(* [top.(0 .. n-1)] holds the heaviest entries offered so far, in
   [by_degree] order. An entry belongs there when a slot is free or it
   sorts strictly before the last one; checking that allocates nothing,
   so an entry of the untracked tail costs one comparison. Without the
   [float] annotation the comparisons are polymorphic, the check is not
   inlined, and every offered degree is boxed. *)
let[@inline] admits top n v (d : float) =
  let k = Array.length top in
  n < k
  || k > 0
     &&
     let last_v, last_d = top.(k - 1) in
     d > last_d || (d = last_d && Rel.Value.compare v last_v < 0)

(* Puts an admitted [entry] into slot [n], or over the last slot when all
   are filled, and moves it up past every entry it sorts strictly before;
   returns the new fill. An entry stays behind an equal one placed
   earlier, so the slots hold the k-prefix of a stable sort of every
   entry offered. *)
let place top n entry =
  let i = ref (min n (Array.length top - 1)) in
  while !i > 0 && by_degree entry top.(!i - 1) < 0 do
    top.(!i) <- top.(!i - 1);
    decr i
  done;
  top.(!i) <- entry;
  min (n + 1) (Array.length top)

let slots k = Array.make (max k 0) (Rel.Value.Null, 0.)

(* The top-k is selected, not sorted. *)
let of_counts ?(k = default_k) counts =
  let top = slots k in
  let tracked = ref 0 and entries = ref 0 in
  let l1 = ref 0. and l2_sq = ref 0. and linf = ref 0. in
  (* A loop rather than an iterator closure, so the float accumulators
     stay unboxed. *)
  let rest = ref counts in
  while not (List.is_empty !rest) do
    match !rest with
    | [] -> ()
    | (v, c) :: tail ->
      rest := tail;
      if c > 0 && not (Rel.Value.is_null v) then begin
        let d = float_of_int c in
        l1 := !l1 +. d;
        l2_sq := !l2_sq +. (d *. d);
        if d > !linf then linf := d;
        incr entries;
        if admits top !tracked v d then tracked := place top !tracked (v, d)
      end
  done;
  {
    l1 = !l1;
    l2_sq = !l2_sq;
    linf = !linf;
    top = Array.sub top 0 !tracked;
    k;
    complete = !entries <= k;
  }

let of_values ?(k = default_k) values =
  let counts = Hashtbl.create 1024 in
  Array.iter
    (fun v ->
      if not (Rel.Value.is_null v) then
        match Hashtbl.find_opt counts v with
        | Some c -> Hashtbl.replace counts v (c + 1)
        | None -> Hashtbl.add counts v 1)
    values;
  of_counts ~k (Hashtbl.fold (fun v c acc -> (v, c) :: acc) counts [])

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
  let top = slots k in
  let tracked =
    Hashtbl.fold
      (fun v d n -> if admits top n v d then place top n (v, d) else n)
      union 0
  in
  let tracked_max = if tracked > 0 then snd top.(0) else 0. in
  {
    l1 = a.l1 +. b.l1;
    l2_sq = a.l2_sq +. b.l2_sq +. (2. *. !cross);
    linf = Float.max tracked_max (Float.max a.linf b.linf);
    top = Array.sub top 0 tracked;
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
