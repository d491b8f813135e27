(* Order statistics. Latency percentiles use the nearest rank; medians and
   quartiles of repeated runs follow Python's [statistics.median] and
   [statistics.quantiles(values, n=4)], so spreads computed here and by a
   script over the same JSON agree. *)

let sorted values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of an ascending array, [q] in (0, 1]. *)
let rank a q =
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) k))

let median values =
  let a = sorted values in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* First and third quartile, exclusive method. *)
let quartiles values =
  let a = sorted values in
  let ld = Array.length a in
  if ld = 0 then (Float.nan, Float.nan)
  else if ld = 1 then (a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 3)

(* Interquartile range as a share of the median. *)
let spread values =
  let q1, q3 = quartiles values in
  let med = median values in
  if med = 0. then (if q3 = q1 then 0. else Float.infinity)
  else (q3 -. q1) /. Float.abs med
