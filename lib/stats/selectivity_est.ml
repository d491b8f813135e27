let default_eq = 0.1
let default_range = 1. /. 3.

let clamp01 x = Float.min 1. (Float.max 0. x)

let as_float v =
  match v with
  | Rel.Value.Int x -> Some (float_of_int x)
  | Rel.Value.Float x -> Some x
  | Rel.Value.Null | Rel.Value.String _ | Rel.Value.Bool _ -> None

let is_int = function
  | Rel.Value.Int _ -> true
  | Rel.Value.Null | Rel.Value.Float _ | Rel.Value.String _ | Rel.Value.Bool _
    ->
    false

type source =
  | Src_mcv
  | Src_mcv_remainder
  | Src_histogram
  | Src_interpolation
  | Src_uniform
  | Src_bounds
  | Src_default

let source_name = function
  | Src_mcv -> "mcv"
  | Src_mcv_remainder -> "mcv-remainder"
  | Src_histogram -> "histogram"
  | Src_interpolation -> "interpolation"
  | Src_uniform -> "uniform"
  | Src_bounds -> "bounds"
  | Src_default -> "default"

(* The column's recorded bounds as numbers, with whether both are
   integers; [None] when either is missing or not numeric. *)
let numeric_bounds stats =
  match stats.Col_stats.min_value, stats.Col_stats.max_value with
  | Some lo_v, Some hi_v -> begin
    match as_float lo_v, as_float hi_v with
    | Some lo, Some hi -> Some (lo, hi, is_int lo_v && is_int hi_v)
    | _, _ -> None
  end
  | _, _ -> None

(* Fraction of the column's value domain lying strictly below [x]
   (and, separately, at or below [x]) by linear interpolation between the
   bounds. Integer domains count discrete values so that [x < 100] over
   1..1000 yields 99/1000 and not 99/999. *)
let interpolate (lo, hi, int_domain) x =
  if int_domain then begin
    let width = hi -. lo +. 1. in
    if Float.is_integer x then
      let below = clamp01 ((x -. lo) /. width) in
      let at_or_below = clamp01 ((x -. lo +. 1.) /. width) in
      (below, at_or_below)
    else begin
      (* A non-integer constant over an integer domain occupies no
         discrete slot: the values strictly below [x] are exactly the
         values at-or-below it, namely lo..⌊x⌋. *)
      let mass = clamp01 ((Float.floor x -. lo +. 1.) /. width) in
      (mass, mass)
    end
  end
  else begin
    let width = hi -. lo in
    if width <= 0. then
      (* Single-point domain. *)
      if x < lo then (0., 0.) else if x > lo then (1., 1.) else (0., 1.)
    else begin
      let f = clamp01 ((x -. lo) /. width) in
      (f, f)
    end
  end

let eq_selectivity stats c =
  let d = stats.Col_stats.distinct in
  let out_of_bounds =
    match stats.Col_stats.min_value, stats.Col_stats.max_value with
    | Some lo, Some hi when not (Rel.Value.is_null c) ->
      (* Numeric-aware: a Float literal probed against Int bounds must
         compare by value, or every float constant lands out of bounds. *)
      Rel.Value.compare_sem c lo < 0 || Rel.Value.compare_sem c hi > 0
    | _, _ -> false
  in
  if out_of_bounds then (0., Src_bounds)
  else
    (* An MCV sketch beats the uniform rule: exact frequency for tracked
       values, the uniform remainder for the rest. *)
    match stats.Col_stats.mcv with
    | Some mcv -> begin
      match Mcv.lookup mcv c with
      | Some fraction -> (fraction, Src_mcv)
      | None ->
        (Mcv.remainder_eq_selectivity mcv ~distinct:d, Src_mcv_remainder)
    end
    | None ->
      if d > 0 then (1. /. float_of_int d, Src_uniform)
      else (default_eq, Src_default)

let comparison_with_source stats op c =
  if Rel.Value.is_null c then (0., Src_default)
  else
    (* MCV sketches carry exact per-value frequencies, so they take
       precedence over the histogram for (in)equality predicates. *)
    let mcv_applies =
      stats.Col_stats.mcv <> None
      &&
      match op with
      | Rel.Cmp.Eq | Rel.Cmp.Ne -> true
      | Rel.Cmp.Lt | Rel.Cmp.Le | Rel.Cmp.Gt | Rel.Cmp.Ge -> false
    in
    match stats.Col_stats.histogram, as_float c with
    | Some h, Some x when not mcv_applies ->
      (Histogram.selectivity h op x, Src_histogram)
    | _, _ -> begin
      match op with
      | Rel.Cmp.Eq -> eq_selectivity stats c
      | Rel.Cmp.Ne ->
        let s, source = eq_selectivity stats c in
        (clamp01 (1. -. s), source)
      | Rel.Cmp.Lt | Rel.Cmp.Le | Rel.Cmp.Gt | Rel.Cmp.Ge -> begin
        match numeric_bounds stats, as_float c with
        | Some bounds, Some x ->
          let below, at_or_below = interpolate bounds x in
          ( (match op with
            | Rel.Cmp.Lt -> below
            | Rel.Cmp.Le -> at_or_below
            | Rel.Cmp.Gt -> clamp01 (1. -. at_or_below)
            | Rel.Cmp.Ge -> clamp01 (1. -. below)
            | Rel.Cmp.Eq | Rel.Cmp.Ne -> assert false),
            Src_interpolation )
        | _, _ -> (default_range, Src_default)
      end
    end

let comparison stats op c = fst (comparison_with_source stats op c)

let range_pair_with_source stats ~lower ~upper =
  (* P(l < x <= u) = F(u) - F(l), with each side's inclusiveness folded
     into which cumulative estimate we take. *)
  let upper_op = function
    | Rel.Cmp.Lt -> Rel.Cmp.Lt
    | Rel.Cmp.Le | Rel.Cmp.Eq -> Rel.Cmp.Le
    | Rel.Cmp.Gt | Rel.Cmp.Ge | Rel.Cmp.Ne ->
      invalid_arg "Selectivity_est.range_pair: not an upper bound"
  and lower_op = function
    | Rel.Cmp.Gt -> Rel.Cmp.Le (* exclude x <= c *)
    | Rel.Cmp.Ge | Rel.Cmp.Eq -> Rel.Cmp.Lt (* exclude x < c *)
    | Rel.Cmp.Lt | Rel.Cmp.Le | Rel.Cmp.Ne ->
      invalid_arg "Selectivity_est.range_pair: not a lower bound"
  in
  let mass_below cdf_op ~absent = function
    | None -> (absent, None)
    | Some (op, c) ->
      let s, source = comparison_with_source stats (cdf_op op) c in
      (s, Some source)
  in
  let mass_below_upper, upper_source = mass_below upper_op ~absent:1. upper in
  let mass_below_lower, lower_source = mass_below lower_op ~absent:0. lower in
  (* Both sides read the same statistic unless one of them fell back to
     the default, and then the value rests on that default. *)
  let source =
    match upper_source, lower_source with
    | Some Src_default, _ | _, Some Src_default | None, None -> Src_default
    | Some s, _ | None, Some s -> s
  in
  (clamp01 (mass_below_upper -. mass_below_lower), source)

let range_pair stats ~lower ~upper =
  fst (range_pair_with_source stats ~lower ~upper)

(* --- comparison joins: histogram-CDF convolution ------------------------

   P(a op b) for [a] drawn from the left column and [b] from the right,
   generalizing the paper's rule 2d from constants to column pairs: the
   left column's cumulative distribution is integrated over the right
   column's value distribution. Histograms give a piecewise CDF; min/max
   bounds degrade to linear interpolation; with no numeric statistics on
   either side the System R defaults apply (1/3 for inequalities, the
   equality default for a band). *)

(* The statistic behind a column's CDF, picked once per call. *)
type cdf = Cdf_histogram of Histogram.t | Cdf_bounds of (float * float * bool)

let cdf_of stats =
  match stats.Col_stats.histogram with
  | Some h -> Some (Cdf_histogram h)
  | None -> Option.map (fun bounds -> Cdf_bounds bounds) (numeric_bounds stats)

(* F(op, x) for op ∈ {Lt, Le}: fraction of the column's values v with
   [v op x]. *)
let cdf_at cdf op x =
  match cdf with
  | Cdf_histogram h -> Histogram.selectivity h op x
  | Cdf_bounds bounds ->
    let below, at_or_below = interpolate bounds x in
    (match op with Rel.Cmp.Lt -> below | _ -> at_or_below)

(* Only Lt/Le are cumulative queries; anything else is a caller bug,
   refused loudly rather than silently answered with the at-or-below
   mass. *)
let cdf_eval stats op x =
  (match op with
  | Rel.Cmp.Lt | Rel.Cmp.Le -> ()
  | Rel.Cmp.Eq | Rel.Cmp.Ne | Rel.Cmp.Gt | Rel.Cmp.Ge ->
    invalid_arg "Selectivity_est.cdf_eval: only Lt/Le are CDF queries");
  Option.map (fun cdf -> cdf_at cdf op x) (cdf_of stats)

(* The right column's value distribution as weighted intervals
   [(lo, hi, weight)] with the weights summing to 1, and the statistic
   they come from. *)
let outer_buckets stats =
  match stats.Col_stats.histogram with
  | Some h ->
    let total = Histogram.total_count h in
    if total <= 0. then None
    else
      let weighted b =
        if b.Histogram.count > 0. then
          Some (b.Histogram.lo, b.Histogram.hi, b.Histogram.count /. total)
        else None
      in
      Some (List.filter_map weighted (Histogram.buckets h), Src_histogram)
  | None -> begin
    match numeric_bounds stats with
    | Some (lo, hi, _) when lo <= hi ->
      Some ([ (lo, hi, 1.) ], Src_interpolation)
    | Some _ | None -> None
  end

(* E_b[g(b)] over the right column's buckets: a point-mass bucket
   (lo = hi) contributes weight·g(point) exactly; an interval bucket uses
   the trapezoid (g(lo) + g(hi)) / 2, exact whenever g is linear over the
   bucket. *)
let integrate g buckets =
  List.fold_left
    (fun acc (lo, hi, w) ->
      if lo = hi then acc +. (w *. g lo)
      else acc +. (w *. (g lo +. g hi) /. 2.))
    0. buckets

(* [integrand f] integrated over the right column's buckets, where [f] is
   the left column's CDF, with the two statistics read; [None] when
   either side has no numeric statistics, and the caller's default
   applies. A bucket list left empty by NaN counts integrates to 0
   without reading the left CDF. *)
let convolve left right integrand =
  match outer_buckets right, cdf_of left with
  | Some (buckets, right_source), Some cdf ->
    let left_source =
      match cdf with
      | Cdf_histogram _ -> Src_histogram
      | Cdf_bounds _ -> Src_interpolation
    in
    let mass = integrate (integrand (cdf_at cdf)) buckets in
    Some (mass, (left_source, right_source))
  | Some ([], right_source), None -> Some (0., (Src_default, right_source))
  | Some _, None | None, _ -> None

let join_comparison left op right =
  (* [op] is always Lt or Le inside [conv]: Gt/Ge go through the
     complements of Le/Lt. *)
  let conv op = convolve left right (fun f x -> f op x) in
  let complement (mass, sources) = (1. -. mass, sources) in
  let estimate =
    match op with
    | Rel.Cmp.Lt -> conv Rel.Cmp.Lt
    | Rel.Cmp.Le -> conv Rel.Cmp.Le
    (* P(a > b) = 1 - P(a <= b); P(a >= b) = 1 - P(a < b). *)
    | Rel.Cmp.Gt -> Option.map complement (conv Rel.Cmp.Le)
    | Rel.Cmp.Ge -> Option.map complement (conv Rel.Cmp.Lt)
    | Rel.Cmp.Eq | Rel.Cmp.Ne ->
      invalid_arg "Selectivity_est.join_comparison: not an inequality"
  in
  match estimate with
  | Some (mass, sources) -> (clamp01 mass, sources)
  | None -> (default_range, (Src_default, Src_default))

let join_band left ~eps right =
  (* P(|a - b| <= eps) = E_b[F_le(b + eps) - F_lt(b - eps)]. *)
  let window f x = f Rel.Cmp.Le (x +. eps) -. f Rel.Cmp.Lt (x -. eps) in
  match convolve left right window with
  | Some (mass, sources) -> (clamp01 mass, sources)
  | None -> (default_eq, (Src_default, Src_default))
