type t = {
  keys : Rel.Value.t array;
  counts : int array;  (* 0 marks a free slot *)
  slots : int;
  mutable distinct : int;
  mutable nulls : int;
}

(* [Rel.Value.hash] boxes a pair per call, and hash joins' comparison counts
   depend on its collisions. This one allocates nothing for [Int] and puts
   -0.0 with 0.0 and every NaN together, as [Rel.Value.equal] does. *)
let[@inline] mix h =
  let h = (h lxor (h lsr 31)) * 0x3c6ef372fe94f82b in
  let h = (h lxor (h lsr 29)) * 0x2545f4914f6cdd1d in
  h lxor (h lsr 32)

let[@inline] hash = function
  | Rel.Value.Int x -> mix x
  | Rel.Value.Float f when Float.is_nan f -> 1
  | Rel.Value.Float f -> if f = 0. then 0 else mix (Int64.to_int (Int64.bits_of_float f))
  | Rel.Value.String s -> mix (Hashtbl.hash s)
  | Rel.Value.Bool b -> Bool.to_int b + 2
  | Rel.Value.Null -> 0

(* Counts non-null [v] by linear probing; true when it is the first of its
   value. A repeat goes over the key it equals, as in [Hashtbl.replace]:
   equal floats can differ in their bits, and the last one is reported. *)
let add t v =
  let mask = t.slots - 1 in
  let i = ref (hash v land mask) in
  while t.counts.(!i) > 0 && not (Rel.Value.equal t.keys.(!i) v) do
    i := (!i + 1) land mask
  done;
  let fresh = t.counts.(!i) = 0 in
  t.counts.(!i) <- t.counts.(!i) + 1;
  if fresh then t.distinct <- t.distinct + 1;
  (match v with Rel.Value.Float _ -> t.keys.(!i) <- v | _ -> if fresh then t.keys.(!i) <- v);
  fresh

(* Each domain keeps its table between columns, as [Exec.Flat_table] keeps
   its build tables: [Atomic.exchange] hands it to one call at a time, so a
   re-entrant call, a second systhread on the domain, or the call after one
   that raised finds [none] and allocates its own. Both arrays go straight
   to the major heap, so a fresh table per column grows the heap at every
   re-ANALYZE of a served catalog; the cap bounds what a domain keeps. *)
let max_kept = 1 lsl 16
let none = { keys = [||]; counts = [||]; slots = 0; distinct = 0; nulls = 0 }
let spare = Domain.DLS.new_key (fun () -> Atomic.make none)
let rec slots_for rows n = if n >= 2 * rows then n else slots_for rows (2 * n)

let count ?(first = ignore) values f =
  let n = slots_for (Array.length values) 16 in
  let kept = if n > max_kept then none else Atomic.exchange (Domain.DLS.get spare) none in
  let keys, counts =
    if Array.length kept.keys >= n then (kept.keys, kept.counts)
    else (Array.make n Rel.Value.Null, Array.make n 0)
  in
  let t = { keys; counts; slots = n; distinct = 0; nulls = 0 } in
  for i = 0 to Array.length values - 1 do
    let v = values.(i) in
    if Rel.Value.is_null v then t.nulls <- t.nulls + 1
    else if add t v then first v
  done;
  let result = f t in
  Array.fill keys 0 n Rel.Value.Null;
  Array.fill counts 0 n 0;
  if Array.length keys <= max_kept then Atomic.set (Domain.DLS.get spare) t;
  result
