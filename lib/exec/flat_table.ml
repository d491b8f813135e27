type t = {
  mutable tuples : Rel.Tuple.t array;  (** build rows, in arrival order *)
  mutable hashes : int array;  (** their full hashes *)
  mutable n : int;  (** build rows added *)
  mutable starts : int array;  (** each bucket's first slot *)
  mutable slot_row : int array;  (** the build row in each slot *)
  mutable slot_hash : int array;  (** its full hash *)
  mutable mask : int;  (** buckets - 1; buckets are a power of two *)
}

let create () =
  { tuples = [||]; hashes = [||]; n = 0; starts = [| 0; 0 |];
    slot_row = [||]; slot_hash = [||]; mask = 0 }

let reserve t rows =
  if Array.length t.tuples < rows then begin
    let keep a fill i = if i < t.n then a.(i) else fill in
    t.tuples <- Array.init rows (keep t.tuples [||]);
    t.hashes <- Array.init rows (keep t.hashes 0);
    t.slot_row <- Array.make rows 0;
    t.slot_hash <- Array.make rows 0
  end

let add t tuple hash =
  if t.n = Array.length t.tuples then reserve t (max 64 (2 * t.n));
  t.tuples.(t.n) <- tuple;
  t.hashes.(t.n) <- hash;
  t.n <- t.n + 1

let rec buckets_for n b = if 4 * b < n then buckets_for n (2 * b) else b

(* One counting pass: count each bucket's rows, turn the counts into
   bucket ends, then place the rows from the last one down, so each bucket
   lists its rows in arrival order in contiguous slots, and [starts.(b)]
   ends at its first slot. Buckets hold up to four rows on average. *)
let seal t =
  let buckets = buckets_for t.n 1 in
  if Array.length t.starts <= buckets then
    t.starts <- Array.make (buckets + 1) 0
  else Array.fill t.starts 0 (buckets + 1) 0;
  let starts = t.starts in
  t.mask <- buckets - 1;
  for i = 0 to t.n - 1 do
    let b = t.hashes.(i) land t.mask in
    starts.(b) <- starts.(b) + 1
  done;
  for b = 1 to buckets do
    starts.(b) <- starts.(b) + starts.(b - 1)
  done;
  for i = t.n - 1 downto 0 do
    let b = t.hashes.(i) land t.mask in
    starts.(b) <- starts.(b) - 1;
    t.slot_row.(starts.(b)) <- i;
    t.slot_hash.(starts.(b)) <- t.hashes.(i)
  done

let probe t hash f left =
  let b = hash land t.mask in
  for s = t.starts.(b + 1) - 1 downto t.starts.(b) do
    if t.slot_hash.(s) = hash then f left t.tuples.(t.slot_row.(s))
  done

type pool = { mutable free : t list; mutable used : t list }

let pool () = { free = []; used = [] }

let take pool ~rows =
  let t =
    match pool.free with
    | [] -> create ()
    | t :: rest ->
      pool.free <- rest;
      t
  in
  pool.used <- t :: pool.used;
  reserve t rows;
  t

(* Each domain keeps the tables of its last run for the next one, as
   [Optimizer.Dp] keeps its per-mask arrays: [Atomic.exchange] hands them
   to one run at a time, so a re-entrant run, a second systhread on the
   domain, or the run after one that raised finds none and allocates its
   own. At most 2^18 rows of capacity are kept (about 9 MiB over the five
   arrays), enough for Section 8's builds over 10k, 50k and 100k rows. *)
let spare = Domain.DLS.new_key (fun () -> Atomic.make [])
let max_kept_rows = 1 lsl 18

let take_pool () =
  { free = Atomic.exchange (Domain.DLS.get spare) []; used = [] }

let give_back pool =
  let rec keep room = function
    | t :: rest when Array.length t.tuples <= room ->
      Array.fill t.tuples 0 t.n [||];
      t.n <- 0;
      t :: keep (room - Array.length t.tuples) rest
    | _ :: rest -> keep room rest
    | [] -> []
  in
  let tables = List.rev_append pool.used pool.free in
  Atomic.set (Domain.DLS.get spare) (keep max_kept_rows tables)
