type stats = {
  mutable violations : int;
  mutable repairs : int;
  mutable fallbacks : int;
}

type t = {
  mode : Config.strictness;
  stats : stats;
}

let create mode = { mode; stats = { violations = 0; repairs = 0; fallbacks = 0 } }

let stats t = t.stats
let mode t = t.mode

let note_fallback t = t.stats.fallbacks <- t.stats.fallbacks + 1

let clear t =
  t.stats.violations <- 0;
  t.stats.repairs <- 0;
  t.stats.fallbacks <- 0

let absorb ~into t =
  into.stats.violations <- into.stats.violations + t.stats.violations;
  into.stats.repairs <- into.stats.repairs + t.stats.repairs;
  into.stats.fallbacks <- into.stats.fallbacks + t.stats.fallbacks;
  clear t

(* The hot paths call these on every produced number, so the in-range
   check must stay allocation-free; breach handling (formatting, raising)
   lives out of line. *)

let breach t ~site ~detail ~repaired =
  t.stats.violations <- t.stats.violations + 1;
  match t.mode with
  | Config.Strict ->
    Els_error.raise_ (Els_error.Invariant_violation { site; detail = detail () })
  | Config.Repair ->
    t.stats.repairs <- t.stats.repairs + 1;
    repaired
  | Config.Trap -> None

let selectivity t ~site s =
  (* S ∈ (0,1]. NaN fails the comparison chain, landing in the breach
     branch. A zero selectivity is legitimate (contradictory predicates),
     so only the impossible values count: negative, > 1, NaN. *)
  if s >= 0. && s <= 1. then s
  else
    let repaired = if s > 1. then 1. else 0. (* covers s < 0 and NaN *) in
    match
      breach t ~site
        ~detail:(fun () -> Printf.sprintf "selectivity %h outside [0, 1]" s)
        ~repaired:(Some repaired)
    with
    | Some r -> r
    | None -> s

let cardinality ?(upper = infinity) t ~site x =
  if x >= 0. && x <= upper then x
  else
    let repaired =
      if x > upper then upper
      else 0. (* covers x < 0 and NaN *)
    in
    match
      breach t ~site
        ~detail:(fun () ->
          if x > upper then
            Printf.sprintf "cardinality %h exceeds bound %h" x upper
          else Printf.sprintf "cardinality %h is negative or NaN" x)
        ~repaired:(Some repaired)
    with
    | Some r -> r
    | None -> x

let distinct t ~site ~d d' =
  let upper = Float.max 1. d in
  if d' >= 1. && d' <= upper then d'
  else
    let repaired = if d' > upper then upper else 1. in
    match
      breach t ~site
        ~detail:(fun () ->
          Printf.sprintf "effective cardinality %h outside [1, %h]" d' upper)
        ~repaired:(Some repaired)
    with
    | Some r -> r
    | None -> d'
