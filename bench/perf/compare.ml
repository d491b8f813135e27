(* [perf.exe compare PARENT.json CHANGE.json]: one row per (workload,
   metric) with both medians, the delta, the bound and a verdict. Where the
   parent's own spread is wider than the bound, a slower-looking change is
   unresolved, not unchanged, unless every change run beats every parent
   run. *)

type verdict = Better | Same | Worse | Unresolved | Ungated

let verdict_name = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"
  | Ungated -> "-"

(* Workload name -> its untraced runs, in file order. *)
let load path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  match Obs.Json.of_string text with
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)
  | Ok json -> (
    match Obs.Json.member "workloads" json with
    | Some (Obs.Json.List ws) ->
      List.map
        (fun w ->
          let name =
            match Obs.Json.member "name" w with
            | Some (Obs.Json.String s) -> s
            | _ -> failwith (path ^ ": workload without a name")
          in
          let runs =
            match Obs.Json.member "runs" w with
            | Some (Obs.Json.List runs) -> List.map Runner.of_json runs
            | _ -> []
          in
          (name, runs))
        ws
    | _ -> failwith (path ^ ": no workloads"))

(* How far [change] is worse than [parent]; negative when better. *)
let worse_by (spec : Metric.spec) ~parent ~change =
  match spec.better with
  | Metric.Lower -> change -. parent
  | Metric.Higher -> parent -. change

let judge (spec : Metric.spec) ~deterministic parent change =
  let p = Quant.median parent and c = Quant.median change in
  let d = worse_by spec ~parent:p ~change:c in
  let by_amount bound = if d > bound then Worse else if d < -.bound then Better else Same in
  match spec.gate with
  | Metric.Ungated -> Ungated
  | Metric.Exact when not deterministic -> Ungated
  | Metric.Exact -> by_amount 0.
  | Metric.Absolute bound -> by_amount bound
  | Metric.Relative bound ->
    let every_change_better =
      List.for_all
        (fun cv -> List.for_all (fun pv -> worse_by spec ~parent:pv ~change:cv < 0.) parent)
        change
    in
    let rel = if p = 0. then 0. else d /. Float.abs p in
    if Quant.spread parent > bound then
      if every_change_better then Better else Unresolved
    else if rel > bound then Worse
    else if rel < -.bound then Better
    else Same

let bound_text (spec : Metric.spec) =
  match spec.gate with
  | Metric.Relative b -> Printf.sprintf "%g%%" (100. *. b)
  | Metric.Absolute b -> Printf.sprintf "abs %g" b
  | Metric.Exact -> "exact"
  | Metric.Ungated -> "-"

let delta_text (spec : Metric.spec) p c =
  match spec.gate with
  | Metric.Relative _ | Metric.Ungated when p <> 0. ->
    Printf.sprintf "%+.2f%%" (100. *. (c -. p) /. Float.abs p)
  | _ -> Printf.sprintf "%+.4g" (c -. p)

(* Prints the table; returns the exit code: 1 on any worse row. *)
let run parent_path change_path =
  let parent = load parent_path and change = load change_path in
  Printf.printf "%-12s %-32s %14s %14s %10s %8s  %s\n" "workload" "metric" "parent" "change"
    "delta" "bound" "verdict";
  let worse = ref 0 and unresolved = ref 0 in
  List.iter
    (fun (name, pruns) ->
      match List.assoc_opt name change with
      | None -> Printf.printf "%-12s (absent from %s)\n" name change_path
      | Some cruns ->
        let deterministic =
          match Suite.find name with Some w -> Suite.deterministic w | None -> false
        in
        List.iter
          (fun (spec : Metric.spec) ->
            let values runs =
              List.filter_map (fun (r : Runner.record) -> List.assoc_opt spec.name r.metrics) runs
            in
            match (values pruns, values cruns) with
            | [], _ | _, [] -> ()
            | pv, cv ->
              let v = judge spec ~deterministic pv cv in
              if v = Worse then incr worse;
              if v = Unresolved then incr unresolved;
              let p = Quant.median pv and c = Quant.median cv in
              Printf.printf "%-12s %-32s %14.6g %14.6g %10s %8s  %s\n" name spec.name p c
                (delta_text spec p c) (bound_text spec) (verdict_name v))
          Metric.specs)
    parent;
  Printf.printf "compare: %d worse, %d unresolved\n" !worse !unresolved;
  if !worse > 0 then 1 else 0
