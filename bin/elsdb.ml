(* elsdb — command-line front end.

   Subcommands:
     section8   reproduce the paper's Section 8 experiment
     estimate   estimate join sizes for a SQL query under each algorithm
     explain    show the plan an algorithm's estimates lead to
     run        optimize, execute and report work counters
     closure    print the transitive closure of a query's predicates
     analyze    print or audit (--check) the catalog statistics
     fault      run the fault-injection suite (experiment F9)
     soak       run the randomized soak/chaos harness (experiment F11)
     churn      run the catalog-churn soak (experiment F13)
     serve      long-running estimation service (ndjson protocol)
     serve-chaos     protocol-level chaos against the service (F15)
     check-metrics   validate a --metrics json snapshot from stdin

   Exit codes are uniform across subcommands: 0 success, 1 runtime
   failure (corrupt statistics, invariant breach, exhausted budget, shed
   request, failed suite, I/O error), 2 usage error (bad flags, bad SQL,
   unknown table/estimator/format). Never a backtrace.

   estimate/explain/run accept --trace[=pretty|json] (hierarchical spans
   over bind → validate → profile → optimize → execute) and
   --metrics=text|json (the unified Obs.Metrics snapshot). explain always
   prints the estimate derivation card; with --trace=json the derivation
   is embedded in the trace object.

   explain/run accept --deadline-ms/--node-budget/--row-budget: one
   budget spans the whole invocation, so the optimizer degrades down its
   anytime ladder and the executor cancels cooperatively when it trips.

   estimate/explain/run accept --estimator=m|ss|ls|pess|lp2|degseq|ent
   (any id in
   Els.Estimator.registry) to select a single combining rule; unknown
   names exit 2 with a did-you-mean suggestion.

   Built-in databases (--db), each with a default query for --sql:
     section8[:SCALE]   the paper's S/M/B/G tables (default scale 10)
     chain:N            a random N-table chain workload
     star:N             a fact table with N dimensions
   csv:FILE[:FILE...] loads one table per file and has no default query,
   so it needs --sql. *)

open Cmdliner

(* A database and its canonical query, if it has one. *)
let db_of_string spec =
  let section8 scale =
    Ok
      ( Datagen.Section8.build ~scale ~seed:42 (),
        Some (Datagen.Section8.query_scaled ~scale) )
  in
  let parts = String.split_on_char ':' spec in
  match parts with
  | [ "section8" ] -> section8 10
  | [ "section8"; scale ] -> begin
    match int_of_string_opt scale with
    | Some scale when scale >= 1 -> section8 scale
    | Some _ | None -> Error "section8 scale must be a positive integer"
  end
  | [ "chain"; n ] -> begin
    match int_of_string_opt n with
    | Some n when n >= 2 ->
      let spec = Datagen.Workload.chain ~seed:42 ~n_tables:n () in
      Ok (spec.Datagen.Workload.db, Some spec.Datagen.Workload.query)
    | Some _ | None -> Error "chain needs at least 2 tables"
  end
  | [ "star"; n ] -> begin
    match int_of_string_opt n with
    | Some n when n >= 1 ->
      let spec = Datagen.Workload.star ~seed:42 ~n_dims:n () in
      Ok (spec.Datagen.Workload.db, Some spec.Datagen.Workload.query)
    | Some _ | None -> Error "star needs at least 1 dimension"
  end
  | "csv" :: paths when paths <> [] -> begin
    (* csv:PATH[:PATH...] — one table per file, named by basename. *)
    match
      let db = Catalog.Db.create () in
      List.iter
        (fun path ->
          let table =
            Filename.remove_extension (Filename.basename path)
            |> String.lowercase_ascii
          in
          ignore
            (Catalog.Analyze.register db ~name:table
               (Rel.Csv.relation_of_file ~table path)))
        paths;
      db
    with
    | db -> Ok (db, None)
    | exception Sys_error msg -> Error msg
    | exception Invalid_argument msg -> Error msg
  end
  | _ -> Error (Printf.sprintf "unknown database spec %S" spec)

let db_arg =
  let parse s = Result.map_error (fun e -> `Msg e) (db_of_string s) in
  let print ppf _ = Format.pp_print_string ppf "<db>" in
  Arg.(
    value
    & opt (conv (parse, print)) (Result.get_ok (db_of_string "section8"))
    & info [ "db" ] ~docv:"DB"
        ~doc:
          "Database: section8[:SCALE], chain:N, star:N, or \
           csv:FILE[:FILE...] (one table per file, named by basename).")

let sql_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "sql" ] ~docv:"SQL"
        ~doc:"Query text; defaults to the database's canonical query.")

let algo_of_string = function
  | "sm" -> Ok (Els.Config.sm ~ptc:false)
  | "sm+ptc" -> Ok (Els.Config.sm ~ptc:true)
  | "sss" -> Ok Els.Config.sss
  | "els" -> Ok Els.Config.els
  | s -> Error (Printf.sprintf "unknown algorithm %S (sm, sm+ptc, sss, els)" s)

let algo_arg =
  let parse s = Result.map_error (fun e -> `Msg e) (algo_of_string s) in
  let print ppf c = Format.pp_print_string ppf (Els.Config.name c) in
  Arg.(
    value
    & opt (some (conv (parse, print))) None
    & info [ "algo" ] ~docv:"ALGO"
        ~doc:"Estimation algorithm: sm, sm+ptc, sss, els (default els).")

(* Resolved lazily (inside handle_errors) so an unknown name takes the
   one-line exit-2 error path with Estimator.of_string's did-you-mean
   message, not cmdliner's usage dump. *)
let estimator_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "estimator" ] ~docv:"EST"
        ~doc:
          "Estimator: m, ss, ls, pess, or the degree-statistics family \
           lp2, degseq, ent (any estimator registered in \
           the core registry).")

let resolve_estimator = Option.map Els.Estimator.of_string_exn

(* [--estimator] alone selects that estimator's canonical configuration;
   combined with [--algo] it swaps the combining rule on that algorithm's
   pipeline (closure/local/single-table stay the algorithm's). *)
let resolve_config algo estimator =
  match (algo, resolve_estimator estimator) with
  | None, None -> Els.Config.els
  | Some config, None -> config
  | None, Some e -> Els.Config.of_estimator e
  | Some config, Some e -> Els.Config.with_estimator e config

let enumerator_arg =
  let parse s =
    Result.map_error (fun e -> `Msg e) (Optimizer.enumerator_of_string s)
  in
  let print ppf e = Format.pp_print_string ppf (Optimizer.enumerator_name e) in
  Arg.(
    value
    & opt (conv (parse, print)) Optimizer.Exhaustive
    & info [ "enumerator" ] ~docv:"ENUM"
        ~doc:"Join-order enumerator: dp (exhaustive), greedy, or random.")

let seed_arg default =
  Arg.(value & opt int default & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let strictness_conv =
  let parse s =
    match Catalog.Validate.strictness_of_string s with
    | Some m -> Ok m
    | None ->
      Error (`Msg (Printf.sprintf "unknown mode %S (strict, repair, trap)" s))
  in
  let print ppf m =
    Format.pp_print_string ppf (Catalog.Validate.strictness_name m)
  in
  Arg.conv (parse, print)

(* --- resource budget flags (explain/run) --- *)

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Wall-clock deadline in milliseconds for the whole invocation; \
           the optimizer degrades anytime-style, execution cancels.")

let node_budget_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "node-budget" ] ~docv:"N"
        ~doc:
          "Maximum optimizer node expansions before the enumerator \
           degrades down its anytime ladder.")

let row_budget_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "row-budget" ] ~docv:"N"
        ~doc:
          "Maximum executor rows (tuples read + emitted) before execution \
           cancels with a budget-exhausted error.")

(* One budget for the whole invocation, created when the command runs
   (inside handle_errors, so a bad value is a one-line usage error). *)
let budget_term =
  let resolve deadline_ms node_budget row_budget () =
    match (deadline_ms, node_budget, row_budget) with
    | None, None, None -> None
    | _ ->
      Some (Rel.Budget.create ?deadline_ms ?node_budget ?row_budget ())
  in
  Term.(const resolve $ deadline_arg $ node_budget_arg $ row_budget_arg)

(* --- observability flags (estimate/explain/run) --- *)

let trace_arg =
  Arg.(
    value
    & opt ~vopt:(Some "pretty") (some string) None
    & info [ "trace" ] ~docv:"FMT"
        ~doc:
          "Record trace spans over the pipeline (bind → validate → profile \
           → optimize → execute) and print them as $(docv): pretty \
           (default) or json.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FMT"
        ~doc:
          "Print the unified metrics snapshot (profile caches, guard \
           counters, catalog issues, budget usage, executor work, \
           optimizer provenance) as $(docv): text or json.")

let resolve_trace = function
  | None -> (None, `Off)
  | Some "pretty" -> (Some (Obs.Trace.create ()), `Pretty)
  | Some "json" -> (Some (Obs.Trace.create ()), `Json)
  | Some other ->
    invalid_arg (Printf.sprintf "unknown trace format %S (pretty, json)" other)

let metrics_mode = function
  | None -> `Off
  | Some "text" -> `Text
  | Some "json" -> `Json
  | Some other ->
    invalid_arg (Printf.sprintf "unknown metrics format %S (text, json)" other)

let resolve_metrics fmt =
  match metrics_mode fmt with
  | `Off -> (None, `Off)
  | mode -> (Some (Obs.Metrics.create ()), mode)

(* [extra] carries sibling JSON fields (the derivation) so [--trace json]
   emits one self-contained object. *)
let print_trace ?(extra = []) mode tracer =
  match (mode, tracer) with
  | `Off, _ | _, None -> ()
  | `Pretty, Some t -> Format.printf "@.trace:@.%a" Obs.Trace.pp t
  | `Json, Some t ->
    let json =
      match Obs.Trace.to_json t with
      | Obs.Json.Obj fields -> Obs.Json.Obj (fields @ extra)
      | other -> other
    in
    print_endline (Obs.Json.to_string json)

(* JSON goes out as the last stdout line, so the snapshot pipes straight
   into [check-metrics]. *)
let print_snapshot mode snapshot =
  match mode with
  | `Off -> ()
  | `Text -> Format.printf "@.metrics:@.%a" Obs.Metrics.pp snapshot
  | `Json -> print_endline (Obs.Json.to_string (Obs.Metrics.to_json snapshot))

let print_metrics mode registry =
  Option.iter (fun m -> print_snapshot mode (Obs.Metrics.snapshot m)) registry

let resolve_query (db, default_query) sql =
  match (sql, default_query) with
  | Some text, _ -> Sqlfront.Binder.compile db text
  | None, Some q -> Ok q
  | None, None ->
    Error "--sql is required: a csv database has no default query"

(* Bad SQL is a usage error: the user asked for something the system can
   never do, so it exits 2 like any other malformed invocation. *)
let or_die = function
  | Ok v -> v
  | Error msg ->
    prerr_endline msg;
    exit 2

(* The exit-code taxonomy: errors the caller can fix by changing the
   invocation (bad query, unknown name, missing statistics) are usage
   errors (2); errors that arise from the system's state at runtime
   (corrupt statistics, invariant breaches, exhausted budgets, shed
   requests) are runtime failures (1). *)
let exit_code_of_error = function
  | Els.Els_error.Parse_error _ | Els.Els_error.Invalid_query _
  | Els.Els_error.Missing_stats _ ->
    2
  | Els.Els_error.Corrupt_stats _ | Els.Els_error.Invariant_violation _
  | Els.Els_error.Budget_exhausted _ | Els.Els_error.Overloaded _ ->
    1

(* Every failure is a one-line message — never a backtrace. *)
let handle_errors f =
  match f () with
  | () -> ()
  | exception Els.Els_error.Error e ->
    Printf.eprintf "error: %s\n" (Els.Els_error.to_string e);
    exit (exit_code_of_error e)
  | exception Invalid_argument msg | exception Failure msg ->
    Printf.eprintf "error: %s\n" msg;
    exit 2
  | exception Sys_error msg ->
    Printf.eprintf "error: %s\n" msg;
    exit 1

(* --- the pipeline front shared by estimate/explain/run --- *)

type front = {
  db : Catalog.Db.t;
  query : Query.t;
  tracer : Obs.Trace.t option;
  trace_mode : [ `Off | `Pretty | `Json ];
  registry : Obs.Metrics.t option;
  metrics_mode : [ `Off | `Text | `Json ];
}

(* --db/--sql bound to a query inside the "bind" span, beside the
   --trace/--metrics sinks. Resolved when the command runs, inside
   handle_errors, so a bad format or bad SQL exits 2 with one line. *)
let front_term =
  let resolve dbspec sql trace_fmt metrics_fmt () =
    let tracer, trace_mode = resolve_trace trace_fmt in
    let registry, metrics_mode = resolve_metrics metrics_fmt in
    let query =
      Obs.Trace.with_span tracer "bind" @@ fun () ->
      or_die (resolve_query dbspec sql)
    in
    { db = fst dbspec; query; tracer; trace_mode; registry; metrics_mode }
  in
  Term.(const resolve $ db_arg $ sql_arg $ trace_arg $ metrics_arg)

let print_observability ?extra front =
  print_trace ?extra front.trace_mode front.tracer;
  print_metrics front.metrics_mode front.registry

(* --- section8 --- *)

let section8_cmd =
  let scale =
    Arg.(
      value & opt int 10
      & info [ "scale" ] ~docv:"N" ~doc:"Divide the paper's table sizes by $(docv).")
  in
  let run scale seed =
    handle_errors @@ fun () ->
    let rows = Harness.Section8_experiment.run ~scale ~seed () in
    print_string (Harness.Section8_experiment.render rows)
  in
  Cmd.v
    (Cmd.info "section8" ~doc:"Reproduce the paper's Section 8 experiment.")
    Term.(const run $ scale $ seed_arg 42)

(* --- estimate --- *)

let estimate_cmd =
  let run setup estimator =
    handle_errors @@ fun () ->
    let ({ db; query; tracer; registry; _ } as front) = setup () in
    Printf.printf "query: %s\n\n" (Query.to_string query);
    let order = query.Query.tables in
    let configs =
      match resolve_estimator estimator with
      | Some e -> [ Els.Config.of_estimator e ]
      | None ->
        (* The full panel: plain SM, then every registered estimator's
           canonical configuration. *)
        Els.Config.sm ~ptc:false :: Els.Config.panel ()
    in
    List.iter
      (fun config ->
        let profile = Els.prepare ?trace:tracer config db query in
        let history =
          Els.Incremental.history (Els.Incremental.estimate_order profile order)
        in
        Option.iter
          (fun m -> Harness.Obs_report.absorb_profile m profile)
          registry;
        Printf.printf "%-8s along %s: %s\n"
          (Els.Config.name config)
          (String.concat " ⋈ " order)
          (Harness.Report.size_list history))
      configs;
    print_observability front
  in
  Cmd.v
    (Cmd.info "estimate"
       ~doc:
         "Estimate intermediate join sizes under every registered \
          estimator (or just one, with --estimator).")
    Term.(const run $ front_term $ estimator_arg)

(* --- explain --- *)

let explain_cmd =
  let run setup algo enumerator estimator make_budget =
    handle_errors @@ fun () ->
    let ({ db; query; tracer; registry; _ } as front) = setup () in
    let config = resolve_config algo estimator in
    let budget = make_budget () in
    let choice =
      Optimizer.choose ~enumerator ?budget ?trace:tracer config db query
    in
    Optimizer.explain Format.std_formatter choice;
    Option.iter
      (fun b -> Format.printf "budget: %a@." Rel.Budget.pp b)
      budget;
    (* Metrics describe the optimizer's pass, so they are absorbed before
       the derivation replay below adds reference-tier steps. *)
    Option.iter
      (fun m ->
        Harness.Obs_report.absorb_choice m choice;
        Option.iter (Harness.Obs_report.absorb_budget m) budget)
      registry;
    (* Derivation card: replay the chosen order on the reference tier,
       which recomputes every number the kernel produced. The replay can
       raise (a guard trip under Strict): print whatever partial card was
       captured before the trip. *)
    let deriv = Obs.Derivation.create () in
    (match choice.Optimizer.join_order with
    | [] -> ()
    | order -> (
      match
        Obs.Trace.with_span tracer "derive" @@ fun () ->
        Els.Incremental.derive choice.Optimizer.profile deriv order
      with
      | _ -> ()
      | exception Els.Els_error.Error e ->
        Format.printf "derivation replay stopped: %s@."
          (Els.Els_error.to_string e)));
    Format.printf "%a" Obs.Derivation.pp_card deriv;
    print_observability front
      ~extra:[ ("derivation", Obs.Derivation.to_json deriv) ]
  in
  Cmd.v
    (Cmd.info "explain" ~doc:"Show the plan the chosen algorithm leads to.")
    Term.(
      const run $ front_term $ algo_arg $ enumerator_arg $ estimator_arg
      $ budget_term)

(* --- run --- *)

let run_cmd =
  let run setup algo estimator make_budget =
    handle_errors @@ fun () ->
    let ({ db; query; tracer; registry; _ } as front) = setup () in
    let config = resolve_config algo estimator in
    let budget = make_budget () in
    let trial = Harness.Runner.run ?budget ?trace:tracer config db query in
    Printf.printf "algorithm:  %s\n" trial.Harness.Runner.algorithm;
    Printf.printf "provenance: %s\n"
      (Optimizer.Provenance.to_string trial.Harness.Runner.provenance);
    Printf.printf "join order: %s\n"
      (String.concat " ⋈ " trial.Harness.Runner.join_order);
    Printf.printf "estimates:  %s\n"
      (Harness.Report.size_list trial.Harness.Runner.estimates);
    Printf.printf "true sizes: %s\n"
      (Harness.Report.size_list trial.Harness.Runner.true_sizes);
    Printf.printf "result:     %d rows\n" trial.Harness.Runner.result_rows;
    Printf.printf "work:       %d tuples (%.3fs)\n" trial.Harness.Runner.work
      trial.Harness.Runner.elapsed_s;
    Option.iter
      (fun m ->
        Harness.Obs_report.absorb_trial m trial;
        Option.iter (Harness.Obs_report.absorb_budget m) budget)
      registry;
    print_observability front
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Optimize, execute and report measured work.")
    Term.(const run $ front_term $ algo_arg $ estimator_arg $ budget_term)

(* --- closure --- *)

let closure_cmd =
  let run dbspec sql =
    handle_errors @@ fun () ->
    let query = or_die (resolve_query dbspec sql) in
    let closed = Els.Closure.close_query query in
    Printf.printf "original: %s\n" (Query.to_string query);
    Printf.printf "closed:   %s\n" (Query.to_string closed)
  in
  Cmd.v
    (Cmd.info "closure"
       ~doc:"Print the predicate transitive closure of a query.")
    Term.(const run $ db_arg $ sql_arg)

(* --- analyze --- *)

let analyze_cmd =
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Audit the catalog instead of printing it: list every finding \
             and exit 1 when unrepaired findings remain (trap and strict \
             modes); repair mode fixes what it finds and exits 0.")
  in
  let strictness_arg =
    Arg.(
      value
      & opt strictness_conv Catalog.Validate.Trap
      & info [ "strictness" ] ~docv:"MODE"
          ~doc:
            "Audit mode for --check: trap (report only, default), repair \
             (fix findings, exit 0), strict (first finding aborts).")
  in
  let run dbspec check strictness =
    handle_errors @@ fun () ->
    let db, _ = dbspec in
    if not check then
      List.iter
        (fun t -> Format.printf "%a@." Catalog.Table.pp t)
        (Catalog.Db.tables db)
    else begin
      match Catalog.Validate.validate strictness db with
      | Error issue ->
        Printf.printf "finding: %s\n" (Catalog.Validate.issue_to_string issue);
        Printf.printf "catalog audit: FAIL (strict aborts on first finding)\n";
        exit 1
      | Ok (_, []) -> print_endline "catalog audit: clean"
      | Ok (_, issues) ->
        let repaired =
          match strictness with
          | Catalog.Validate.Repair -> true
          | Catalog.Validate.Strict | Catalog.Validate.Trap -> false
        in
        List.iter
          (fun issue ->
            Printf.printf "%s: %s\n"
              (if repaired then "repaired" else "finding")
              (Catalog.Validate.issue_to_string issue))
          issues;
        if repaired then
          Printf.printf "catalog audit: %d finding(s), all repaired\n"
            (List.length issues)
        else begin
          Printf.printf "catalog audit: FAIL (%d unrepaired finding(s))\n"
            (List.length issues);
          exit 1
        end
    end
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Print the catalog's per-table statistics, or audit the whole \
          catalog with --check (exit 1 when unrepaired findings remain).")
    Term.(const run $ db_arg $ check_arg $ strictness_arg)

(* --- fault --- *)

let fault_cmd =
  let strictness_arg =
    Arg.(
      value
      & opt (some ~none:"all" strictness_conv) None
      & info [ "strictness" ] ~docv:"MODE"
          ~doc:
            "Strictness mode to test: strict, repair or trap (default: all \
             three).")
  in
  let node_budget =
    Arg.(
      value
      & opt (some int) None
      & info [ "node-budget" ] ~docv:"N"
          ~doc:
            "Also cross every corruption with a fresh N-expansion \
             optimizer budget (budget trips are expected degradations).")
  in
  let run strictness seed node_budget =
    handle_errors @@ fun () ->
    let modes =
      match strictness with
      | Some m -> [ m ]
      | None ->
        [ Catalog.Validate.Strict; Catalog.Validate.Repair;
          Catalog.Validate.Trap ]
    in
    let make_budget =
      Option.map
        (fun n () -> Rel.Budget.create ~node_budget:n ())
        node_budget
    in
    let outcomes =
      List.concat_map
        (fun strictness ->
          Harness.Fault.run ~seed ?make_budget ~strictness ())
        modes
    in
    print_string (Harness.Fault.render outcomes);
    Printf.printf "budget trips: %d of %d outcomes\n"
      (Harness.Fault.budget_trips outcomes)
      (List.length outcomes);
    if Harness.Fault.all_pass outcomes then
      print_endline "fault-injection suite: PASS"
    else begin
      print_endline "fault-injection suite: FAIL";
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "fault"
       ~doc:
         "Run the fault-injection suite (F9): corrupt the catalog in every \
          known way and assert the pipeline degrades instead of crashing.")
    Term.(const run $ strictness_arg $ seed_arg 7 $ node_budget)

(* --- soak --- *)

let soak_cmd =
  let iters =
    Arg.(
      value & opt int 200
      & info [ "iters" ] ~docv:"N" ~doc:"Number of randomized iterations.")
  in
  let deadline_ms =
    Arg.(
      value & opt float 5.
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:"Optimizer deadline used by the deadline-respect leg.")
  in
  let iter_seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "iter-seed" ] ~docv:"SEED"
          ~doc:
            "Replay exactly one iteration with this per-iteration seed (as \
             printed in a failure's scenario line); --iters is ignored.")
  in
  let run iters deadline_ms seed iter_seed =
    handle_errors @@ fun () ->
    let summary = Harness.Soak.run ~seed ?iter_seed ~deadline_ms ~iters () in
    print_string (Harness.Soak.render summary);
    if not (Harness.Soak.pass summary) then exit 1
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Run the randomized soak/chaos harness (F11): random workloads × \
          catalog corruption × resource budgets, asserting no crashes, no \
          non-finite answers, deadline respect, anytime monotonicity and \
          consistent cancellation.")
    Term.(const run $ iters $ deadline_ms $ seed_arg 1 $ iter_seed)

(* --- churn --- *)

let churn_cmd =
  let iters =
    Arg.(
      value & opt int 60
      & info [ "iters" ] ~docv:"N" ~doc:"Number of randomized iterations.")
  in
  let run iters seed metrics_fmt =
    handle_errors @@ fun () ->
    let mode = metrics_mode metrics_fmt in
    let summary = Harness.Churn.run ~seed ~iters () in
    print_string (Harness.Churn.render summary);
    print_snapshot mode summary.Harness.Churn.metrics;
    if not (Harness.Churn.pass summary) then exit 1
  in
  Cmd.v
    (Cmd.info "churn"
       ~doc:
         "Run the catalog-churn soak (F13): stream inserts/deletes through \
          a versioned catalog store, re-ANALYZE in bulk and in partitions, \
          corrupt staged statistics, and publish epochs throughout — \
          asserting no crashes, no torn reads for pinned readers, monotone \
          epoch ids, visible staleness disclosure and bounded drift \
          against a fresh bulk-ANALYZE baseline.")
    Term.(const run $ iters $ seed_arg 1 $ metrics_arg)

(* --- serve --- *)

let serve_cmd =
  let domains =
    Arg.(
      value & opt int Serve.Server.default_config.Serve.Server.domains
      & info [ "domains" ] ~docv:"N" ~doc:"Worker domains per session.")
  in
  let queue_depth =
    Arg.(
      value & opt int Serve.Server.default_config.Serve.Server.queue_depth
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:
            "Bounded admission queue depth; requests beyond it are shed \
             with a structured overloaded response.")
  in
  let deadline_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Default per-request deadline applied to requests that do not \
             carry their own deadline_ms field.")
  in
  let max_frame_bytes =
    Arg.(
      value
      & opt int Serve.Server.default_config.Serve.Server.max_frame_bytes
      & info [ "max-frame-bytes" ] ~docv:"N"
          ~doc:"Frames longer than $(docv) bytes are refused, not parsed.")
  in
  let drain_deadline_ms =
    Arg.(
      value
      & opt float Serve.Server.default_config.Serve.Server.drain_deadline_ms
      & info [ "drain-deadline-ms" ] ~docv:"MS"
          ~doc:"How long a drain waits for in-flight work to finish.")
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix-domain socket at $(docv) (one session per \
             connection) instead of serving a single stdin/stdout session.")
  in
  let run dbspec domains queue_depth deadline_ms max_frame_bytes
      drain_deadline_ms socket metrics_fmt =
    handle_errors @@ fun () ->
    let db, _ = dbspec in
    let registry, mode = resolve_metrics metrics_fmt in
    let config =
      {
        Serve.Server.default_config with
        Serve.Server.domains;
        queue_depth;
        default_deadline_ms = deadline_ms;
        max_frame_bytes;
        drain_deadline_ms;
      }
    in
    let server = Serve.Server.create ~config ?metrics:registry db in
    (* SIGTERM asks the server to drain: admission stops, in-flight work
       finishes, the process exits 0. *)
    if Sys.unix then
      Sys.set_signal Sys.sigterm
        (Sys.Signal_handle (fun _ -> Serve.Server.request_stop server));
    (match socket with
    | Some path -> Serve.Server.serve_socket server ~path
    | None ->
      let stats = Serve.Server.session server stdin stdout in
      Printf.eprintf
        "session: %d frames, %d admitted, %d ok, %d error, %d shed, %d \
         malformed, %d internal, max epoch %d%s\n"
        stats.Serve.Server.frames stats.Serve.Server.admitted
        stats.Serve.Server.answered_ok stats.Serve.Server.answered_error
        stats.Serve.Server.shed stats.Serve.Server.malformed
        stats.Serve.Server.internal_errors stats.Serve.Server.max_epoch
        (if stats.Serve.Server.disconnected then ", client disconnected"
         else ""));
    (* The registry the sessions wrote into, flushed as the last stdout
       line so it pipes straight into [check-metrics]. *)
    print_metrics mode registry
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the long-running estimation service: a versioned ndjson \
          protocol (estimate, explain, run, analyze, health, drain) over \
          stdin/stdout or a Unix-domain socket (--socket), with worker \
          domains, bounded admission, per-request deadlines, a per-request \
          exception firewall and graceful drain on SIGTERM.")
    Term.(
      const run $ db_arg $ domains $ queue_depth $ deadline_ms
      $ max_frame_bytes $ drain_deadline_ms $ socket $ metrics_arg)

(* --- serve-chaos --- *)

let serve_chaos_cmd =
  let sessions =
    Arg.(
      value & opt int 500
      & info [ "sessions" ] ~docv:"N" ~doc:"Number of randomized sessions.")
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:"CI-sized run: caps --sessions at 60 (keeps every frame kind).")
  in
  let run sessions seed quick metrics_fmt =
    handle_errors @@ fun () ->
    let mode = metrics_mode metrics_fmt in
    let sessions = if quick then min sessions 60 else sessions in
    let summary = Harness.Serve_chaos.run ~seed ~sessions () in
    print_string (Harness.Serve_chaos.render summary);
    print_snapshot mode summary.Harness.Serve_chaos.metrics;
    if not (Harness.Serve_chaos.pass summary) then exit 1
  in
  Cmd.v
    (Cmd.info "serve-chaos"
       ~doc:
         "Run protocol-level chaos against the estimation service (F15): \
          malformed, truncated and oversized frames, unknown protocol \
          versions, deadline storms, mid-request disconnects and \
          concurrent catalog churn against the real server loop — \
          asserting zero crashes, total structured accounting and monotone \
          epoch visibility.")
    Term.(const run $ sessions $ seed_arg 1 $ quick $ metrics_arg)

(* --- check-metrics --- *)

(* Schema check for the [--metrics json] output: an object with the three
   instrument sections, counters integral and non-negative, histogram
   summaries carrying numeric count/sum. Used by CI to pin the snapshot
   shape; exits 2 with the first violation otherwise. *)
let check_metrics_json json =
  let ( let* ) = Result.bind in
  let all check xs =
    List.fold_left
      (fun acc x ->
        let* () = acc in
        check x)
      (Ok ()) xs
  in
  let* fields =
    match json with
    | Obs.Json.Obj fields -> Ok fields
    | _ -> Error "top level is not an object"
  in
  let counter (name, v) =
    match v with
    | Obs.Json.Int n when n >= 0 -> Ok ()
    | _ ->
      Error (Printf.sprintf "counter %S is not a non-negative integer" name)
  in
  let gauge (name, v) =
    match v with
    | Obs.Json.Float _ | Obs.Json.Int _ | Obs.Json.Null -> Ok ()
    | _ -> Error (Printf.sprintf "gauge %S is not numeric" name)
  in
  let histogram (name, v) =
    let numeric entries field =
      match List.assoc_opt field entries with
      | Some (Obs.Json.Int _ | Obs.Json.Float _ | Obs.Json.Null) -> Ok ()
      | Some _ | None ->
        Error (Printf.sprintf "histogram %S lacks numeric %S" name field)
    in
    match v with
    | Obs.Json.Obj entries -> all (numeric entries) [ "count"; "sum" ]
    | _ -> Error (Printf.sprintf "histogram %S is not an object" name)
  in
  let sections =
    [ ("counters", counter); ("gauges", gauge); ("histograms", histogram) ]
  in
  let entries name =
    match List.assoc_opt name fields with
    | Some (Obs.Json.Obj entries) -> entries
    | _ -> []
  in
  (* Every section must be present before any entry is checked. *)
  let* () =
    all
      (fun (section, _) ->
        match List.assoc_opt section fields with
        | Some (Obs.Json.Obj _) -> Ok ()
        | Some _ -> Error (Printf.sprintf "%S is not an object" section)
        | None -> Error (Printf.sprintf "missing section %S" section))
      sections
  in
  let* () =
    all (fun (section, check) -> all check (entries section)) sections
  in
  Ok
    (List.fold_left
       (fun n (section, _) -> n + List.length (entries section))
       0 sections)

let check_metrics_cmd =
  let run () =
    handle_errors @@ fun () ->
    let buf = Buffer.create 4096 in
    (try
       while true do
         Buffer.add_channel buf stdin 1
       done
     with End_of_file -> ());
    let text = Buffer.contents buf in
    match Obs.Json.of_string text with
    | Error msg ->
      Printf.eprintf "check-metrics: invalid JSON: %s\n" msg;
      exit 2
    | Ok json -> begin
      match check_metrics_json json with
      | Ok n -> Printf.printf "metrics JSON: ok (%d instruments)\n" n
      | Error msg ->
        Printf.eprintf "check-metrics: %s\n" msg;
        exit 2
    end
  in
  Cmd.v
    (Cmd.info "check-metrics"
       ~doc:
         "Validate a --metrics json snapshot read from stdin against the \
          expected schema (counters/gauges/histograms sections, \
          non-negative integer counters).")
    Term.(const run $ const ())

let () =
  let info =
    Cmd.info "elsdb" ~version:"1.0.0"
      ~doc:
        "Join result size estimation (Swami & Schiefer, EDBT 1994) on an \
         in-memory relational engine."
  in
  let group =
    Cmd.group info
      [
        section8_cmd; estimate_cmd; explain_cmd; run_cmd; closure_cmd;
        analyze_cmd; fault_cmd; soak_cmd; churn_cmd; serve_cmd;
        serve_chaos_cmd; check_metrics_cmd;
      ]
  in
  (* Pin the exit-code taxonomy: cmdliner's own parse failures are usage
     errors (2); an exception that escaped handle_errors is a runtime
     failure (1) — and handle_errors already turned the expected ones into
     one-line messages, so `Exn here means a genuine bug, reported without
     the default backtrace dump. *)
  match Cmd.eval_value ~catch:false group with
  | Ok (`Ok ()) | Ok `Help | Ok `Version -> exit 0
  | Error (`Parse | `Term) -> exit 2
  | Error `Exn -> exit 1
  | exception exn ->
    Printf.eprintf "error: %s\n" (Printexc.to_string exn);
    exit 1
