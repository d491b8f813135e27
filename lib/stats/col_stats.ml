type t = {
  distinct : int;
  nulls : int;
  min_value : Rel.Value.t option;
  max_value : Rel.Value.t option;
  histogram : Histogram.t option;
  mcv : Mcv.t option;
  distinct_sketch : Hll.t option;
  degree : Degree.t option;
}

let numeric_values values =
  let out = Rel.Vec.create () in
  Array.iter
    (fun v ->
      match v with
      | Rel.Value.Int x -> Rel.Vec.push out (float_of_int x)
      | Rel.Value.Float x -> Rel.Vec.push out x
      | Rel.Value.Null | Rel.Value.String _ | Rel.Value.Bool _ -> ())
    values;
  Rel.Vec.to_array out

let of_values ?histogram ?(histogram_buckets = 32) ?mcv
    ?(degree_k = Degree.default_k) values =
  (* One counting pass serves the distinct count, the degree sequence (the
     count of [v] is its degree), the MCVs and the bounds, which only a
     value's first occurrence can move ([Null]: none yet). *)
  let lo = ref Rel.Value.Null and hi = ref Rel.Value.Null in
  let first v =
    if Rel.Value.is_null !lo || Rel.Value.compare v !lo < 0 then lo := v;
    if Rel.Value.is_null !hi || Rel.Value.compare v !hi > 0 then hi := v
  in
  let distinct, nulls, degree, mcv =
    Count_table.count ~first values (fun t ->
        ( t.distinct, t.nulls, Degree.of_table ~k:degree_k t,
          Option.bind mcv (fun k -> Mcv.of_table ~k t) ))
  in
  let histogram =
    match histogram with
    | None -> None
    | Some kind ->
      let nums = numeric_values values in
      if Array.length nums = 0 then None
      else Histogram.build kind ~buckets:histogram_buckets nums
  in
  {
    distinct;
    nulls;
    min_value = (if Rel.Value.is_null !lo then None else Some !lo);
    max_value = (if Rel.Value.is_null !hi then None else Some !hi);
    histogram;
    mcv;
    distinct_sketch = Some (Hll.of_values values);
    degree = Some degree;
  }

let trivial ~distinct =
  {
    distinct;
    nulls = 0;
    min_value = None;
    max_value = None;
    histogram = None;
    mcv = None;
    distinct_sketch = None;
    degree = None;
  }

let with_bounds ~distinct ~lo ~hi =
  {
    distinct;
    nulls = 0;
    min_value = Some lo;
    max_value = Some hi;
    histogram = None;
    mcv = None;
    distinct_sketch = None;
    degree = None;
  }

let combine_bound pick a b =
  match a, b with
  | None, x | x, None -> x
  | Some a, Some b -> Some (pick a b)

let merge ~rows a ~rows':rows2 b =
  let total_rows = rows + rows2 in
  let distinct_sketch =
    match a.distinct_sketch, b.distinct_sketch with
    | Some sa, Some sb when Hll.precision sa = Hll.precision sb ->
        Some (Hll.merge sa sb)
    | _ -> None
  in
  let distinct =
    match distinct_sketch with
    | Some sketch ->
        let est = int_of_float (Float.round (Hll.estimate sketch)) in
        max 0 (min est total_rows)
    | None ->
        (* Without sketches the shard counts can only bound the union. *)
        min (a.distinct + b.distinct) total_rows
  in
  let histogram =
    match a.histogram, b.histogram with
    | None, h | h, None -> h
    | Some ha, Some hb -> Some (Histogram.merge ha hb)
  in
  let mcv =
    let w1 = float_of_int (max 0 (rows - a.nulls))
    and w2 = float_of_int (max 0 (rows2 - b.nulls)) in
    match a.mcv, b.mcv with
    | None, None -> None
    | ma, mb ->
        let empty = Mcv.of_entries [] in
        let merged =
          Mcv.merge
            (w1, Option.value ma ~default:empty)
            (w2, Option.value mb ~default:empty)
        in
        if Mcv.tracked_count merged = 0 then None else Some merged
  in
  let degree =
    (* A shard without degree statistics contributes unaccounted mass, so
       the merged column can only drop them. *)
    match a.degree, b.degree with
    | Some da, Some db -> Some (Degree.merge da db)
    | _ -> None
  in
  {
    distinct;
    nulls = a.nulls + b.nulls;
    min_value =
      combine_bound (fun x y -> if Rel.Value.compare x y <= 0 then x else y)
        a.min_value b.min_value;
    max_value =
      combine_bound (fun x y -> if Rel.Value.compare x y >= 0 then x else y)
        a.max_value b.max_value;
    histogram;
    mcv;
    distinct_sketch;
    degree;
  }

let pp ppf t =
  let pp_opt ppf = function
    | None -> Format.pp_print_string ppf "-"
    | Some v -> Rel.Value.pp ppf v
  in
  Format.fprintf ppf "{d=%d nulls=%d min=%a max=%a%s%s}" t.distinct t.nulls
    pp_opt t.min_value pp_opt t.max_value
    (match t.histogram, t.mcv with
    | None, None -> ""
    | Some _, None -> " hist"
    | None, Some _ -> " mcv"
    | Some _, Some _ -> " hist mcv")
    (match t.distinct_sketch, t.degree with
    | None, None -> ""
    | Some _, None -> " sketch"
    | None, Some _ -> " deg"
    | Some _, Some _ -> " sketch deg")
