type t = {
  p : int;
  registers : Bytes.t; (* 2^p registers; never mutated after construction *)
  estimate : float; (* of [registers], set once by [make] *)
}

let default_p = 12

let estimate_of p registers =
  let m = 1 lsl p in
  let mf = float_of_int m in
  let sum = ref 0. in
  let zeros = ref 0 in
  for i = 0 to m - 1 do
    let r = Char.code (Bytes.get registers i) in
    if r = 0 then incr zeros;
    sum := !sum +. (1. /. Float.of_int (1 lsl r))
  done;
  let alpha = 0.7213 /. (1. +. (1.079 /. mf)) in
  let raw = alpha *. mf *. mf /. !sum in
  if raw <= 2.5 *. mf && !zeros > 0 then
    (* linear counting: far more accurate while most registers are empty *)
    mf *. Float.log (mf /. float_of_int !zeros)
  else raw

(* The one constructor: [registers] are final here. *)
let make p registers = { p; registers; estimate = estimate_of p registers }

let create ?(p = default_p) () =
  if p < 4 || p > 16 then invalid_arg "Hll.create: precision outside [4, 16]";
  make p (Bytes.make (1 lsl p) '\000')

let precision t = t.p

(* --- 64-bit value hashing ----------------------------------------------

   [Hashtbl.hash] only yields 30 bits, which caps a register sketch far
   below real column cardinalities; hash each value into 64 bits instead
   (tagged per constructor, SplitMix64 finalizer). *)

let[@inline] splitmix64 x =
  let open Int64 in
  let x = mul (logxor x (shift_right_logical x 30)) 0xbf58476d1ce4e5b9L in
  let x = mul (logxor x (shift_right_logical x 27)) 0x94d049bb133111ebL in
  logxor x (shift_right_logical x 31)

let[@inline] fnv64 tag s =
  let open Int64 in
  let h = ref (logxor 0xcbf29ce484222325L (of_int tag)) in
  for i = 0 to String.length s - 1 do
    h := mul (logxor !h (of_int (Char.code s.[i]))) 0x100000001b3L
  done;
  !h

(* Inlined, like the two above, so the [Int64] stays unboxed up to the
   caller's register update: building a sketch allocates nothing per
   value. *)
let[@inline] hash_value v =
  let open Int64 in
  match v with
  | Rel.Value.Null -> 0L (* never reached: nulls are skipped *)
  | Rel.Value.Int x -> splitmix64 (add (of_int x) 0x9e3779b97f4a7c15L)
  | Rel.Value.Float f -> splitmix64 (add (bits_of_float f) 0x2545f4914f6cdd1dL)
  | Rel.Value.String s -> splitmix64 (fnv64 3 s)
  | Rel.Value.Bool b -> splitmix64 (if b then 0x6a09e667f3bcc909L else 0x3c6ef372fe94f82bL)

(* Position of the leftmost 1-bit of [w] seen as an [nbits]-wide word,
   scanning down from bit [i]: 1 when the top bit is set, [nbits + 1]
   when [w] is zero. *)
let rec rho w nbits i =
  if i < 0 then nbits + 1
  else if (w lsr i) land 1 = 1 then nbits - i
  else rho w nbits (i - 1)

let add_into registers p v =
  if not (Rel.Value.is_null v) then begin
    let h = hash_value v in
    let idx = Int64.to_int h land ((1 lsl p) - 1) in
    (* [p >= 4], so the 64 - p rank bits fit a native int. *)
    let w = Int64.to_int (Int64.shift_right_logical h p) in
    let r = rho w (64 - p) (63 - p) in
    if r > Char.code (Bytes.get registers idx) then
      Bytes.set registers idx (Char.chr r)
  end

let add_values t values =
  let registers = Bytes.copy t.registers in
  Array.iter (fun v -> add_into registers t.p v) values;
  make t.p registers

let of_values ?(p = default_p) values =
  if p < 4 || p > 16 then invalid_arg "Hll.of_values: precision outside [4, 16]";
  let registers = Bytes.make (1 lsl p) '\000' in
  Array.iter (fun v -> add_into registers p v) values;
  make p registers

let merge a b =
  if a.p <> b.p then
    invalid_arg
      (Printf.sprintf "Hll.merge: precision mismatch (%d vs %d)" a.p b.p);
  let m = 1 lsl a.p in
  let registers = Bytes.create m in
  for i = 0 to m - 1 do
    let x = Bytes.get a.registers i and y = Bytes.get b.registers i in
    Bytes.set registers i (if Char.code x >= Char.code y then x else y)
  done;
  make a.p registers

let estimate t = t.estimate

let equal a b = a.p = b.p && Bytes.equal a.registers b.registers

let pp ppf t =
  Format.fprintf ppf "hll(p=%d, ~%.0f distinct)" t.p (estimate t)
