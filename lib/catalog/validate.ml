type strictness =
  | Strict
  | Repair
  | Trap

let strictness_name = function
  | Strict -> "strict"
  | Repair -> "repair"
  | Trap -> "trap"

let strictness_of_string = function
  | "strict" -> Some Strict
  | "repair" -> Some Repair
  | "trap" -> Some Trap
  | _ -> None

type kind =
  | Negative_rows
  | Stale_row_count
  | Negative_distinct
  | Distinct_exceeds_rows
  | Distinct_drift
  | Negative_nulls
  | Invalid_bounds
  | Nan_histogram
  | Non_monotone_histogram
  | Excess_buckets
  | Invalid_mcv
  | Invalid_degree

let kind_name = function
  | Negative_rows -> "negative-rows"
  | Stale_row_count -> "stale-row-count"
  | Negative_distinct -> "negative-distinct"
  | Distinct_exceeds_rows -> "distinct-exceeds-rows"
  | Distinct_drift -> "distinct-drift"
  | Negative_nulls -> "negative-nulls"
  | Invalid_bounds -> "invalid-bounds"
  | Nan_histogram -> "nan-histogram"
  | Non_monotone_histogram -> "non-monotone-histogram"
  | Excess_buckets -> "excess-buckets"
  | Invalid_mcv -> "invalid-mcv"
  | Invalid_degree -> "invalid-degree"

type issue = {
  table : string;
  column : string option;
  kind : kind;
  detail : string;
  repair : string;
}

let issue_to_string i =
  Printf.sprintf "%s%s: %s [%s; repair: %s]" i.table
    (match i.column with None -> "" | Some c -> "." ^ c)
    i.detail (kind_name i.kind) i.repair

let finite x = Float.is_finite x

(* --- histogram --- *)

let histogram_issue table column h =
  let buckets = Stats.Histogram.buckets h in
  let bad_number b =
    not
      (finite b.Stats.Histogram.lo
      && finite b.Stats.Histogram.hi
      && finite b.Stats.Histogram.count
      && finite b.Stats.Histogram.distinct
      && b.Stats.Histogram.count >= 0.
      && b.Stats.Histogram.distinct >= 0.)
  in
  let rec monotone = function
    | a :: (b :: _ as rest) ->
      a.Stats.Histogram.hi <= b.Stats.Histogram.lo && monotone rest
    | [ _ ] | [] -> true
  in
  let issue kind detail =
    Some { table; column = Some column; kind; detail;
           repair = "drop histogram (fall back to the uniform/urn model)" }
  in
  if List.exists bad_number buckets || not (finite (Stats.Histogram.total_count h))
  then issue Nan_histogram "histogram carries NaN/negative bucket statistics"
  else if
    List.exists (fun b -> b.Stats.Histogram.lo > b.Stats.Histogram.hi) buckets
    || not (monotone buckets)
  then issue Non_monotone_histogram "histogram bucket bounds are not monotone"
  else
    (* [Histogram.build]'s contract: never more buckets than requested.
       A violation means the histogram was tampered with (or a builder
       regression slipped through), so the sketch is untrustworthy. *)
    match Stats.Histogram.requested_buckets h with
    | Some n when List.length buckets > n ->
      issue Excess_buckets
        (Printf.sprintf "histogram has %d buckets but %d were requested"
           (List.length buckets) n)
    | Some _ | None -> None

(* --- MCV --- *)

let mcv_issue table column m =
  let entries = Stats.Mcv.entries m in
  let bad e =
    not (finite e.Stats.Mcv.fraction)
    || e.Stats.Mcv.fraction < 0.
    || e.Stats.Mcv.fraction > 1.
  in
  let total =
    List.fold_left (fun acc e -> acc +. e.Stats.Mcv.fraction) 0. entries
  in
  if List.exists bad entries then
    Some { table; column = Some column; kind = Invalid_mcv;
           detail = "MCV fraction outside [0, 1] or NaN";
           repair = "drop MCV sketch" }
  else if total > 1. +. 1e-9 then
    Some { table; column = Some column; kind = Invalid_mcv;
           detail = Printf.sprintf "MCV fractions sum to %g > 1" total;
           repair = "drop MCV sketch" }
  else None

(* --- degree sequence --- *)

(* Norm consistency of a degree sequence: all norms finite and
   non-negative, L∞ ≤ L1 (the max degree cannot exceed the total mass),
   L2² ≤ L1·L∞ (Σd² ≤ max·Σd), and the tracked top entries descending
   with none above L∞. The inequalities hold exactly for analyzed columns
   and are preserved by [Stats.Degree.merge] (the merged L2² omits only
   non-negative cross terms), so a violation means corruption; the small
   relative slack only absorbs float rounding. *)
let degree_issue table column (d : Stats.Degree.t) =
  let issue detail =
    Some { table; column = Some column; kind = Invalid_degree; detail;
           repair = "drop degree statistics" }
  in
  let tops = Stats.Degree.top_degrees d in
  let rec descending i =
    i + 1 >= Array.length tops
    || (tops.(i) >= tops.(i + 1) && descending (i + 1))
  in
  let eps = 1e-6 in
  if
    not
      (finite d.Stats.Degree.l1
      && finite d.Stats.Degree.l2_sq
      && finite d.Stats.Degree.linf
      && d.Stats.Degree.l1 >= 0.
      && d.Stats.Degree.l2_sq >= 0.
      && d.Stats.Degree.linf >= 0.
      && Array.for_all (fun x -> finite x && x >= 0.) tops)
  then issue "degree norms carry NaN/negative values"
  else if d.Stats.Degree.linf > d.Stats.Degree.l1 *. (1. +. eps) then
    issue
      (Printf.sprintf "max degree %g exceeds L1 mass %g" d.Stats.Degree.linf
         d.Stats.Degree.l1)
  else if
    d.Stats.Degree.l2_sq
    > (d.Stats.Degree.l1 *. d.Stats.Degree.linf *. (1. +. eps)) +. eps
  then
    issue
      (Printf.sprintf "L2² = %g exceeds L1·L∞ = %g" d.Stats.Degree.l2_sq
         (d.Stats.Degree.l1 *. d.Stats.Degree.linf))
  else if not (descending 0) then
    issue "top-k degrees are not descending"
  else if
    Array.length tops > 0 && tops.(0) > d.Stats.Degree.linf *. (1. +. eps)
  then
    issue
      (Printf.sprintf "tracked degree %g exceeds recorded L∞ %g" tops.(0)
         d.Stats.Degree.linf)
  else None

(* --- value bounds --- *)

let nan_value = function
  | Rel.Value.Float f -> Float.is_nan f
  | Rel.Value.Int _ | Rel.Value.String _ | Rel.Value.Bool _ | Rel.Value.Null ->
    false

let bounds_issue table column (s : Stats.Col_stats.t) =
  match s.min_value, s.max_value with
  | Some lo, Some hi ->
    if nan_value lo || nan_value hi then
      Some { table; column = Some column; kind = Invalid_bounds;
             detail = "NaN value bound"; repair = "drop value bounds" }
    else if Rel.Value.compare lo hi > 0 then
      Some { table; column = Some column; kind = Invalid_bounds;
             detail =
               Printf.sprintf "min %s exceeds max %s"
                 (Rel.Value.to_string lo) (Rel.Value.to_string hi);
             repair = "drop value bounds" }
    else None
  | Some v, None | None, Some v ->
    if nan_value v then
      Some { table; column = Some column; kind = Invalid_bounds;
             detail = "NaN value bound"; repair = "drop value bounds" }
    else None
  | None, None -> None

(* --- one column --- *)

let audit_column table ~rows column (s : Stats.Col_stats.t) =
  let issues = ref [] in
  let note issue = issues := issue :: !issues in
  let s =
    if s.distinct < 0 then begin
      note { table; column = Some column; kind = Negative_distinct;
             detail = Printf.sprintf "distinct count %d < 0" s.distinct;
             repair = "clamp to 0" };
      { s with distinct = 0 }
    end
    else s
  in
  let s =
    if rows >= 0 && s.distinct > rows then begin
      note { table; column = Some column; kind = Distinct_exceeds_rows;
             detail =
               Printf.sprintf "distinct count %d exceeds row count %d"
                 s.distinct rows;
             repair = "clamp to row count" };
      { s with distinct = rows }
    end
    else s
  in
  let s =
    (* The distinct sketch is an independent measurement of [d]; when the
       recorded count has drifted a factor of 4 away from it (plus an
       additive slack that silences small columns, where sketch noise is
       proportionally large), the recorded number is stale beyond use.
       Legitimately analyzed columns never trip this: [of_values] writes
       the exact count and the sketch is ~2% accurate. *)
    match s.distinct_sketch with
    | Some sketch when rows > 0 ->
      let est = Stats.Hll.estimate sketch in
      let d = float_of_int s.distinct in
      if Float.max d est > (4. *. Float.min d est) +. 16. then begin
        let repaired = max 0 (min rows (int_of_float (Float.round est))) in
        note { table; column = Some column; kind = Distinct_drift;
               detail =
                 Printf.sprintf
                   "recorded distinct %d drifted from sketch estimate %.0f"
                   s.distinct est;
               repair =
                 Printf.sprintf "adopt the sketch estimate (%d)" repaired };
        { s with distinct = repaired }
      end
      else s
    | Some _ | None -> s
  in
  let s =
    if s.nulls < 0 then begin
      note { table; column = Some column; kind = Negative_nulls;
             detail = Printf.sprintf "null count %d < 0" s.nulls;
             repair = "clamp to 0" };
      { s with nulls = 0 }
    end
    else s
  in
  let s =
    match bounds_issue table column s with
    | Some issue ->
      note issue;
      { s with min_value = None; max_value = None }
    | None -> s
  in
  let s =
    match s.histogram with
    | Some h -> begin
      match histogram_issue table column h with
      | Some issue ->
        note issue;
        { s with histogram = None }
      | None -> s
    end
    | None -> s
  in
  let s =
    match s.mcv with
    | Some m -> begin
      match mcv_issue table column m with
      | Some issue ->
        note issue;
        { s with mcv = None }
      | None -> s
    end
    | None -> s
  in
  let s =
    match s.degree with
    | Some d -> begin
      match degree_issue table column d with
      | Some issue ->
        note issue;
        { s with degree = None }
      | None -> s
    end
    | None -> s
  in
  (s, List.rev !issues)

(* --- one table --- *)

let audit_table (t : Table.t) =
  let issues = ref [] in
  let note issue = issues := issue :: !issues in
  let rows =
    (* Stored tables carry ground truth: a row count that disagrees with
       the stored cardinality is stale (e.g. data regenerated after
       ANALYZE). Check it first so later per-column clamps use the
       repaired count. *)
    match t.data with
    | Some rel ->
      let actual = Rel.Relation.cardinality rel in
      if t.row_count <> actual then begin
        note { table = t.name; column = None; kind = Stale_row_count;
               detail =
                 Printf.sprintf
                   "catalog row count %d but stored data has %d rows"
                   t.row_count actual;
               repair = "use the stored cardinality" };
        actual
      end
      else t.row_count
    | None -> t.row_count
  in
  let rows =
    if rows < 0 then begin
      note { table = t.name; column = None; kind = Negative_rows;
             detail = Printf.sprintf "row count %d < 0" rows;
             repair = "clamp to 0" };
      0
    end
    else rows
  in
  let column_stats =
    List.map
      (fun (name, s) ->
        let s, column_issues = audit_column t.name ~rows name s in
        List.iter note column_issues;
        (name, s))
      t.column_stats
  in
  ({ t with row_count = rows; column_stats }, List.rev !issues)

let check_table t = snd (audit_table t)
let repair_table t = audit_table t

let audit_db db =
  let out = Db.create () in
  let issues =
    List.concat_map
      (fun table ->
        let repaired, issues = audit_table table in
        Db.add out repaired;
        issues)
      (Db.tables db)
  in
  (out, issues)

let check_db db = snd (audit_db db)

let validate strictness db =
  match strictness with
  | Strict -> begin
    match check_db db with
    | [] -> Ok (db, [])
    | issue :: _ -> Error issue
  end
  | Repair -> Ok (audit_db db)
  | Trap -> Ok (db, check_db db)
