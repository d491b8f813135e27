(* The elsdb benchmark. See README.md in this directory. *)

let usage =
  {|usage:
  perf.exe [--seed N] [--seconds S] [--repeat N] [--workload NAME]...
           [--json FILE] [--trace DIR] [--smoke] [--contract BENCHMARK.json]
      Run the workloads (default: all five), each in a child process of its
      own, check every output, and print every metric with its unit.
      --repeat runs each workload N times, alternating the workload order
      per round; --trace runs the traceable workloads once more with a
      tracer and writes DIR/<workload>.trace.json; --contract checks that
      every metric the file names is reported with its unit.
  perf.exe one --workload NAME [--seed N] [--seconds S] [--trace 0|1]
           [--trace-dir DIR] [--smoke] [--full]
      One run of one workload in this process. The last line of stdout is
      its JSON result: the end-to-end metrics, the per-layer ones with
      --trace 1, or every metric with --full.
  perf.exe compare PARENT.json CHANGE.json
      One row per (workload, metric); exit 1 on any worse row.
|}

let usage_error msg =
  prerr_endline ("perf: " ^ msg);
  prerr_string usage;
  exit 2

type flag =
  | Int of int ref
  | Str of string option ref
  | Many of string list ref
  | Set of bool ref

let parse spec args =
  let rec go = function
    | [] -> ()
    | name :: rest -> (
      match List.assoc_opt name spec with
      | None ->
        usage_error
          ("unknown option " ^ name ^ Catalog.Suggest.hint ~candidates:(List.map fst spec) name)
      | Some (Set r) ->
        r := true;
        go rest
      | Some f -> (
        match rest with
        | [] -> usage_error (name ^ " needs a value")
        | v :: rest ->
          (match f with
          | Int r -> (
            match int_of_string_opt v with
            | Some i -> r := i
            | None -> usage_error (Printf.sprintf "%s expects an integer, got %S" name v))
          | Str r -> r := Some v
          | Many r -> r := !r @ [ v ]
          | Set _ -> assert false);
          go rest))
  in
  go args

let workload name =
  match Suite.find name with
  | Some w -> w
  | None ->
    prerr_endline
      (Printf.sprintf "perf: unknown workload %S%s (workloads: %s)" name
         (Catalog.Suggest.hint ~candidates:Suite.names name)
         (String.concat ", " Suite.names));
    exit 2

let positive name v = if v < 1 then usage_error (name ^ " must be at least 1")

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* --- one run --- *)

let one args =
  let name = ref None and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let trace_dir = ref None and smoke = ref false and full = ref false in
  parse
    [
      ("--workload", Str name);
      ("--seed", Int seed);
      ("--seconds", Int seconds);
      ("--trace", Int trace);
      ("--trace-dir", Str trace_dir);
      ("--smoke", Set smoke);
      ("--full", Set full);
    ]
    args;
  let w = match !name with Some n -> workload n | None -> usage_error "one needs --workload" in
  positive "--seconds" !seconds;
  if !trace <> 0 && !trace <> 1 then usage_error "--trace expects 0 or 1";
  let traced = !trace = 1 in
  let record, trace_json =
    Runner.run w ~seed:!seed ~seconds:!seconds ~smoke:!smoke
      ~trace:(traced && Suite.traceable w)
  in
  (match (!trace_dir, trace_json) with
  | Some dir, Some json ->
    mkdir_p dir;
    let path = Filename.concat dir (w.name ^ ".trace.json") in
    Out_channel.with_open_bin path (fun oc -> output_string oc (Obs.Json.to_string json))
  | _ -> ());
  Printf.eprintf "%s seed %d: %d timed ops (+%d warm-up), %d attempted, %d failed\n%!" w.name
    record.seed record.timed_ops record.warmup_ops record.attempted record.failed;
  List.iter (fun f -> Printf.eprintf "  failure: %s\n%!" f) record.failures;
  print_endline
    (Obs.Json.to_string
       (if !full then Runner.to_json record else Runner.contract_json record ~trace:traced))

(* --- the child processes of the full command --- *)

let spawn args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let out = Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> In_channel.input_all ic) in
  let _, status = Unix.waitpid [] pid in
  let last =
    List.fold_left (fun acc l -> if String.trim l = "" then acc else l) ""
      (String.split_on_char '\n' out)
  in
  match (status, Obs.Json.of_string last) with
  | Unix.WEXITED 0, Ok json -> Runner.of_json json
  | _ ->
    prerr_endline ("perf: child run failed: " ^ String.concat " " args);
    exit 1

let fmt_value v = Printf.sprintf "%.6g" v

let print_metric ~runs (spec : Metric.spec) =
  match List.map (fun (r : Runner.record) -> List.assoc_opt spec.name r.metrics) runs with
  | [ Some v ] -> Printf.printf "    %-30s %14s %s\n" spec.name (fmt_value v) spec.unit_
  | values when List.for_all Option.is_some values ->
    let values = List.map Option.get values in
    let q1, q3 = Quant.quartiles values in
    Printf.printf "    %-30s %14s %-14s  q1 %s  q3 %s  spread %.1f%%\n" spec.name
      (fmt_value (Quant.median values)) spec.unit_ (fmt_value q1) (fmt_value q3)
      (100. *. Quant.spread values)
  | _ -> ()

let is_layer (spec : Metric.spec) = String.contains spec.name '.'

let print_workload (w : Suite.t) runs traced =
  let r = List.hd runs in
  Printf.printf "%s: %d timed ops (+%d warm-up) per run, %d run%s, seed %d\n" w.name
    r.Runner.timed_ops r.Runner.warmup_ops (List.length runs)
    (if List.length runs = 1 then "" else "s")
    r.Runner.seed;
  Printf.printf "  end to end\n";
  List.iter (print_metric ~runs) (List.filter (fun s -> not (is_layer s)) Metric.specs);
  Printf.printf "  per layer\n";
  List.iter (print_metric ~runs) (List.filter is_layer Metric.specs);
  Option.iter
    (fun (t : Runner.record) ->
      Printf.printf "  traced run (spans)\n";
      List.iter
        (fun (spec : Metric.spec) ->
          if not (List.mem_assoc spec.name r.metrics) then print_metric ~runs:[ t ] spec)
        Metric.specs;
      let share =
        List.fold_left
          (fun acc n -> acc +. Option.value (List.assoc_opt n t.metrics) ~default:0.)
          0.
          [ "sqlfront.share_pct"; "els.share_pct"; "optimizer.share_pct"; "exec.share_pct" ]
      in
      Printf.printf "    %-30s %14s %%\n" "layer shares, summed" (fmt_value share))
    traced;
  print_newline ()

let summary_json runs =
  Obs.Json.Obj
    (List.filter_map
       (fun (spec : Metric.spec) ->
         match List.filter_map (fun (r : Runner.record) -> List.assoc_opt spec.name r.metrics) runs with
         | [] -> None
         | values ->
           let q1, q3 = Quant.quartiles values in
           Some
             ( spec.name,
               Obs.Json.Obj
                 [
                   ("unit", Obs.Json.String spec.unit_);
                   ("median", Obs.Json.Float (Quant.median values));
                   ("q1", Obs.Json.Float q1);
                   ("q3", Obs.Json.Float q3);
                 ] ))
       Metric.specs)

(* Every metric BENCHMARK.json names must be one perf reports, with the
   same unit, direction and bound, and some workload must measure it. *)
let check_contract path results =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (match Obs.Json.of_string text with
  | Error e -> problem "%s: %s" path e
  | Ok json ->
    let section key section =
      match Obs.Json.member key json with
      | Some (Obs.Json.List entries) ->
        List.iter
          (fun e ->
            let str k = match Obs.Json.member k e with Some (Obs.Json.String s) -> s | _ -> "" in
            let name = str "name" in
            match Metric.find name with
            | None -> problem "%s metric %S is not reported" key name
            | Some spec ->
              if spec.section <> section then problem "%s lists %S" key name;
              if str "unit" <> spec.unit_ then
                problem "%S: unit %S, reported as %S" name (str "unit") spec.unit_;
              if str "better" <> Metric.better_name spec.better then
                problem "%S: better %S, perf says %S" name (str "better")
                  (Metric.better_name spec.better);
              (match (spec.gate, Obs.Json.member "bound" e) with
              | Metric.Relative b, Some (Obs.Json.Float b') when b = b' -> ()
              | Metric.Relative _, _ -> problem "%S: bound differs from perf's" name
              | _ -> ());
              if
                not
                  (List.exists
                     (fun (_, runs) ->
                       List.exists (fun (r : Runner.record) -> List.mem_assoc name r.metrics) runs)
                     results)
              then problem "no workload measures %S" name)
          entries;
        List.iter
          (fun (spec : Metric.spec) ->
            if
              spec.section = section
              && not
                   (List.exists
                      (fun e -> Obs.Json.member "name" e = Some (Obs.Json.String spec.name))
                      entries)
            then problem "%s omits %S" key spec.name)
          Metric.specs
      | _ -> problem "%s: no %s list" path key
    in
    section "end_to_end" Metric.End_to_end;
    section "per_layer" Metric.Per_layer;
    let listed =
      match Obs.Json.member "workloads" json with
      | Some (Obs.Json.List ws) ->
        List.filter_map
          (fun w ->
            match Obs.Json.member "name" w with Some (Obs.Json.String s) -> Some s | _ -> None)
          ws
      | _ -> []
    in
    if List.sort compare listed <> List.sort compare Suite.names then
      problem "workloads [%s], perf runs [%s]" (String.concat ", " listed)
        (String.concat ", " Suite.names));
  List.iter
    (fun (w, runs) ->
      List.iter
        (fun (r : Runner.record) ->
          if List.assoc "error_rate" r.metrics <> 0. then problem "%s: error_rate is not 0" w)
        runs)
    results;
  List.iter (fun p -> prerr_endline ("perf: contract: " ^ p)) (List.rev !problems);
  !problems = []

let main args =
  let seed = ref 1 and seconds = ref 10 and repeat = ref 1 and names = ref [] in
  let json = ref None and trace_dir = ref None and smoke = ref false and contract = ref None in
  parse
    [
      ("--seed", Int seed);
      ("--seconds", Int seconds);
      ("--repeat", Int repeat);
      ("--workload", Many names);
      ("--json", Str json);
      ("--trace", Str trace_dir);
      ("--smoke", Set smoke);
      ("--contract", Str contract);
    ]
    args;
  positive "--seconds" !seconds;
  positive "--repeat" !repeat;
  let workloads = match !names with [] -> Suite.all | l -> List.map workload l in
  let child (w : Suite.t) extra =
    spawn
      ([ "one"; "--workload"; w.name; "--seed"; string_of_int !seed; "--seconds";
         string_of_int !seconds; "--full" ]
      @ (if !smoke then [ "--smoke" ] else [])
      @ extra)
  in
  let runs = Hashtbl.create 8 in
  for round = 1 to !repeat do
    let order = if round mod 2 = 1 then workloads else List.rev workloads in
    List.iter
      (fun (w : Suite.t) ->
        Printf.eprintf "[round %d/%d] %s\n%!" round !repeat w.name;
        let r = child w [] in
        Hashtbl.replace runs w.name (Option.value (Hashtbl.find_opt runs w.name) ~default:[] @ [ r ]))
      order
  done;
  let traced =
    match !trace_dir with
    | None -> []
    | Some dir ->
      List.filter_map
        (fun (w : Suite.t) ->
          if Suite.traceable w then begin
            Printf.eprintf "[traced] %s\n%!" w.name;
            Some (w.name, child w [ "--trace"; "1"; "--trace-dir"; dir ])
          end
          else None)
        workloads
  in
  let results = List.map (fun (w : Suite.t) -> (w.name, Hashtbl.find runs w.name)) workloads in
  List.iter
    (fun (w : Suite.t) -> print_workload w (List.assoc w.name results) (List.assoc_opt w.name traced))
    workloads;
  Option.iter
    (fun path ->
      let workload_json (w : Suite.t) =
        let rs = List.assoc w.name results in
        Obs.Json.Obj
          ([
             ("name", Obs.Json.String w.name);
             ("why", Obs.Json.String w.why);
             ("runs", Obs.Json.List (List.map Runner.to_json rs));
             ("summary", summary_json rs);
           ]
          @
          match List.assoc_opt w.name traced with
          | Some t -> [ ("traced", Runner.to_json t) ]
          | None -> [])
      in
      Out_channel.with_open_bin path (fun oc ->
          output_string oc
            (Obs.Json.to_string
               (Obs.Json.Obj
                  [
                    ("benchmark", Obs.Json.String "elsdb-perf");
                    ("seed", Obs.Json.Int !seed);
                    ("seconds", Obs.Json.Int !seconds);
                    ("repeat", Obs.Json.Int !repeat);
                    ("smoke", Obs.Json.Bool !smoke);
                    ("workloads", Obs.Json.List (List.map workload_json workloads));
                  ]));
          output_char oc '\n'))
    !json;
  let every_run = results @ List.map (fun (n, t) -> (n, [ t ])) traced in
  let failed =
    List.exists
      (fun (_, rs) -> List.exists (fun (r : Runner.record) -> r.failed > 0) rs)
      every_run
  in
  if failed then prerr_endline "perf: some ops failed their output check";
  let contract_ok =
    match !contract with None -> true | Some path -> check_contract path every_run
  in
  exit (if failed || not contract_ok then 1 else 0)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "one" :: args -> one args
  | [ "compare"; a; b ] -> (
    match Compare.run a b with
    | code -> exit code
    | exception (Sys_error msg | Failure msg) ->
      prerr_endline ("perf: compare: " ^ msg);
      exit 2)
  | "compare" :: _ -> usage_error "compare takes two JSON files"
  | ("-h" | "--help" | "help") :: _ -> print_string usage
  | args -> main args
