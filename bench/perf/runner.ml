(* One run of one workload: generate, set up, measure, and optionally trace.
   Always runs in a process of its own, so peak RSS and GC state belong to
   this workload alone. *)

let now = Unix.gettimeofday

type record = {
  workload : string;
  seed : int;
  timed_ops : int;
  warmup_ops : int;
  attempted : int;
  failed : int;
  failures : string list;
  metrics : (string * float) list;
      (** the metrics this workload measures, in {!Metric.specs} order *)
}

(* VmHWM of this process. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.
  | ic ->
    let rec go () =
      match input_line ic with
      | exception End_of_file -> 0.
      | line -> (
        match Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.) with
        | mb -> mb
        | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> go ())
    in
    Fun.protect ~finally:(fun () -> close_in ic) go

let analyze relations =
  let db = Catalog.Db.create () in
  List.iter
    (fun (r : Gen.relation) -> ignore (Catalog.Analyze.register db ~name:r.name r.data))
    relations;
  db

(* Set up [reps] times from scratch, keeping the last result; reports the
   median ANALYZE time and the median whole set-up time. *)
let setup ~reps relations ~finish =
  let analyzed = ref [] and total = ref [] and last = ref None in
  for _ = 1 to reps do
    (* let the previous catalog go before building the next *)
    last := None;
    let t0 = now () in
    let db = analyze relations in
    let t1 = now () in
    let v = finish db in
    let t2 = now () in
    analyzed := (t1 -. t0) :: !analyzed;
    total := (t2 -. t0) :: !total;
    last := Some v
  done;
  (Option.get !last, Quant.median !total, Quant.median !analyzed)

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let run (w : Suite.t) ~seed ~seconds ~smoke ~trace =
  let timed_ops, warmup_ops = Suite.counts w ~seconds ~smoke in
  let reps = if smoke then 1 else 15 in
  let check = Check.create () in
  let common ~generate_s ~setup_s ~analyze_s ~rss =
    [
      ("setup_s", setup_s);
      ("catalog.analyze_s", analyze_s);
      ("datagen.generate_s", generate_s);
      ("peak_rss_mb", rss);
    ]
  in
  let measured, trace_json =
    match w.kind with
    | Suite.Plan gen ->
      let p, generate_s = timed (fun () -> gen ~seed ~smoke) in
      let db, setup_s, analyze_s = setup ~reps p.relations ~finish:Fun.id in
      let truth = Plan_load.truth p db in
      let m = Plan_load.measure p db ~truth ~warmup:warmup_ops ~timed:timed_ops check in
      let rss = peak_rss_mb () in
      let t =
        if trace then
          Some
            (Plan_load.traced p db ~truth ~warmup:warmup_ops ~timed:timed_ops ~untraced:m check)
        else None
      in
      ( common ~generate_s ~setup_s ~analyze_s ~rss
        @ m.metrics
        @ (match t with Some t -> t.layer_metrics | None -> []),
        Option.map
          (fun (t : Plan_load.traced) ->
            Obs.Json.Obj (("workload", Obs.Json.String w.name) :: t.trace_fields))
          t )
    | Suite.Serve { churn } ->
      let s, generate_s =
        timed (fun () -> Gen.serve ~seed ~churn ~n:(timed_ops + warmup_ops))
      in
      let server, setup_s, analyze_s =
        setup ~reps s.relations ~finish:(fun db -> Serve.Server.create db)
      in
      let metrics = Serve_load.measure server s ~warmup:warmup_ops check in
      (common ~generate_s ~setup_s ~analyze_s ~rss:(peak_rss_mb ()) @ metrics, None)
  in
  let measured = ("error_rate", Check.error_rate check) :: measured in
  let metrics =
    List.filter_map
      (fun (spec : Metric.spec) ->
        Option.map (fun v -> (spec.name, v)) (List.assoc_opt spec.name measured))
      Metric.specs
  in
  ( {
      workload = w.name;
      seed;
      timed_ops;
      warmup_ops;
      attempted = check.Check.attempted;
      failed = check.Check.failed;
      failures = List.rev check.Check.examples;
      metrics;
    },
    trace_json )

(* --- records as JSON --- *)

let to_json r =
  let open Obs.Json in
  Obj
    [
      ("workload", String r.workload);
      ("seed", Int r.seed);
      ("timed_ops", Int r.timed_ops);
      ("warmup_ops", Int r.warmup_ops);
      ("correct", Bool (r.failed = 0));
      ("attempted", Int r.attempted);
      ("failed", Int r.failed);
      ("failures", List (List.map (fun s -> String s) r.failures));
      ("metrics", Obj (List.map (fun (k, v) -> (k, Float v)) r.metrics));
    ]

let of_json json =
  let open Obs.Json in
  let get name = member name json in
  let int name = match get name with Some (Int i) -> i | _ -> failwith ("missing " ^ name) in
  let num = function Some (Float x) -> x | Some (Int i) -> float_of_int i | _ -> Float.nan in
  {
    workload = (match get "workload" with Some (String s) -> s | _ -> failwith "missing workload");
    seed = int "seed";
    timed_ops = int "timed_ops";
    warmup_ops = int "warmup_ops";
    attempted = int "attempted";
    failed = int "failed";
    failures =
      (match get "failures" with
      | Some (List l) -> List.filter_map (function String s -> Some s | _ -> None) l
      | _ -> []);
    metrics =
      (match get "metrics" with
      | Some (Obj fields) -> List.map (fun (k, v) -> (k, num (Some v))) fields
      | _ -> []);
  }

(* The result line BENCHMARK.json's contract asks for: every end-to-end
   metric, or with tracing every per-layer one. A metric this workload
   does not measure (a serve RTT on plan-eq, say) reads 0. *)
let contract_json r ~trace =
  let open Obs.Json in
  let section = if trace then Metric.Per_layer else Metric.End_to_end in
  Obj
    [
      ("correct", Bool (r.failed = 0));
      ("attempted", Int r.attempted);
      ("failed", Int r.failed);
      ( "metrics",
        Obj
          (List.filter_map
             (fun (spec : Metric.spec) ->
               if spec.section <> section then None
               else
                 Some
                   ( spec.name,
                     Obj
                       [
                         ( "value",
                           Float
                             (Option.value (List.assoc_opt spec.name r.metrics)
                                ~default:0.) );
                         ("unit", String spec.unit_);
                       ] ))
             Metric.specs) );
    ]
