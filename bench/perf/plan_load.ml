(* plan-eq, plan-bounds and exec-run: one sequential caller, a closed loop
   with one client, as a query optimizer calls ELS. One op is SQL text ->
   compile -> choose -> the final estimate along the chosen order, plus
   [Executor.count] on exec-run.

   The traced run calls the same public functions [Optimizer.choose]
   composes (Profile.build, Profile.kernel, Dp.optimize_traced) so it can
   put a span around each; if [choose] drifts from that decomposition,
   obs.trace_overhead_pct jumps. *)

let span = Obs.Trace.with_span
let now = Unix.gettimeofday

type planned = {
  plan : Exec.Plan.t;
  order : string list;
  estimates : float list;
  profile : Els.Profile.t;
  expansions : int;
}

let compile ?trace db sql =
  match trace with
  | None -> Sqlfront.Binder.compile_result db sql
  | Some _ -> (
    (* Lexed once more on its own so lexing gets a span: parse_structured
       lexes internally, so parse self time is parse minus lex. *)
    ignore (span trace "lex" (fun () -> Sqlfront.Lexer.tokenize_spanned sql));
    match span trace "parse" (fun () -> Sqlfront.Parser.parse_structured sql) with
    | Error e ->
      Error
        (Els.Els_error.Parse_error
           { position = e.Sqlfront.Parser.position; detail = e.Sqlfront.Parser.message })
    | Ok ast -> span trace "bind" (fun () -> Sqlfront.Binder.bind_structured db ast))

let choose ?trace ?methods config db query =
  match trace with
  | None ->
    let c = Optimizer.choose ?methods config db query in
    {
      plan = c.Optimizer.plan;
      order = c.Optimizer.join_order;
      estimates = c.Optimizer.intermediate_estimates;
      profile = c.Optimizer.profile;
      expansions = c.Optimizer.provenance.Optimizer.Provenance.expansions;
    }
  | Some t ->
    let profile = Els.Profile.build ~trace:t config db query in
    span trace "kernel_compile" (fun () -> ignore (Els.Profile.kernel profile));
    let node, provenance =
      span trace "optimize" (fun () -> Optimizer.Dp.optimize_traced ?methods profile query)
    in
    {
      plan = node.Optimizer.Dp.plan;
      order = Exec.Plan.join_order node.Optimizer.Dp.plan;
      estimates = Els.Incremental.history node.Optimizer.Dp.state;
      profile;
      expansions = provenance.Optimizer.Provenance.expansions;
    }

(* Counts summed over the ops of one phase. *)
type acc = {
  mutable kernel_steps : int;
  mutable fallback_steps : int;
  mutable sel_hits : int;
  mutable sel_probes : int;
  mutable expansions : int;
  mutable tuples_read : int;
  mutable comparisons : int;
  mutable tuples_output : int;
  mutable qerrors : float list;
}

let acc () =
  {
    kernel_steps = 0;
    fallback_steps = 0;
    sel_hits = 0;
    sel_probes = 0;
    expansions = 0;
    tuples_read = 0;
    comparisons = 0;
    tuples_output = 0;
    qerrors = [];
  }

let work a = a.tuples_read + a.comparisons + a.tuples_output

let qerror ~estimate rows =
  let e = Float.max estimate 1. and t = Float.max (float_of_int rows) 1. in
  Float.max (e /. t) (t /. e)

(* Executed truth per distinct SQL text, computed once before timing with
   the reference executor (no optimizer involved). *)
let truth (p : Gen.plan) db =
  let table = Hashtbl.create 16 in
  if p.execute then
    Array.iter
      (fun (op : Gen.plan_op) ->
        if not (Hashtbl.mem table op.sql) then
          Hashtbl.add table op.sql
            (Exec.Executor.run_query db (Sqlfront.Binder.compile_exn db op.sql))
              .Exec.Executor.row_count)
      p.ops;
  table

let run_op ?trace a (p : Gen.plan) truth db (op : Gen.plan_op) =
  Check.protect @@ fun () ->
  span trace "op" @@ fun () ->
  match compile ?trace db op.sql with
  | Error e -> Some (Check.error e)
  | Ok query -> (
    let c = choose ?trace ?methods:p.methods op.config db query in
    let final =
      span trace "estimate" (fun () ->
          (Els.Incremental.estimate_order c.profile c.order).Els.Incremental.size)
    in
    let stats = Els.Profile.cache_stats c.profile in
    a.kernel_steps <- a.kernel_steps + Els.Profile.kernel_steps c.profile;
    a.fallback_steps <- a.fallback_steps + Els.Profile.kernel_fallback_steps c.profile;
    a.sel_hits <- a.sel_hits + stats.Els.Profile.sel_hits;
    a.sel_probes <- a.sel_probes + stats.Els.Profile.sel_hits + stats.Els.Profile.sel_misses;
    a.expansions <- a.expansions + c.expansions;
    match Check.estimates (final :: c.estimates) with
    | Some _ as bad -> bad
    | None when not p.execute -> None
    | None ->
      let rows, counters, _ = span trace "execute" (fun () -> Exec.Executor.count db c.plan) in
      a.tuples_read <- a.tuples_read + counters.Exec.Counters.tuples_read;
      a.comparisons <- a.comparisons + counters.Exec.Counters.comparisons;
      a.tuples_output <- a.tuples_output + counters.Exec.Counters.tuples_output;
      if op.qerror then a.qerrors <- qerror ~estimate:final rows :: a.qerrors;
      Check.rows ~want:(Hashtbl.find truth op.sql) rows)

(* Ops [first .. first+count-1]; returns their latencies (ms). *)
let phase ?trace ~first ~count a (p : Gen.plan) truth db check =
  let n = Array.length p.ops in
  Array.init count (fun k ->
      let t0 = now () in
      let op = p.ops.((first + k) mod n) in
      let outcome = run_op ?trace a p truth db op in
      let ms = (now () -. t0) *. 1000. in
      Check.record ~context:op.label check outcome;
      ms)

(* Every op of the mix repeats dozens of times in a run, and its latency is
   taken as the median of its repetitions. Other tenants of a shared host
   slow the machine in bursts that hit a minority of repetitions, so these
   medians move far less between runs than ops/elapsed or percentiles of
   the raw latencies do. Returns ops/s over one pass of the mix, and the
   p50 and p99 over the timed ops. *)
let timing (p : Gen.plan) ~first lat =
  let n = Array.length p.ops in
  let reps = Array.make n [] in
  Array.iteri (fun k ms -> reps.((first + k) mod n) <- ms :: reps.((first + k) mod n)) lat;
  let median = Array.map Quant.median reps in
  let seen = List.filter (fun l -> l <> []) (Array.to_list reps) in
  let mix_ms = List.fold_left (fun acc l -> acc +. Quant.median l) 0. seen in
  let pooled =
    Quant.sorted (List.init (Array.length lat) (fun k -> median.((first + k) mod n)))
  in
  ( 1000. *. float_of_int (List.length seen) /. mix_ms,
    Quant.rank pooled 0.50,
    Quant.rank pooled 0.99 )

type measured = {
  metrics : (string * float) list;
  ops_per_s : float;
  counts : acc;
}

let per n x = float_of_int x /. float_of_int n

(* Warm-up, then the timed phase with tracing off. *)
let measure (p : Gen.plan) db ~truth ~warmup ~timed check =
  ignore (phase ~first:0 ~count:warmup (acc ()) p truth db check);
  let a = acc () in
  let gc0 = Gc.quick_stat () and words0 = Gc.minor_words () in
  let lat = phase ~first:warmup ~count:timed a p truth db check in
  let words = Gc.minor_words () -. words0 and gc1 = Gc.quick_stat () in
  let ops_per_s, p50, p99 = timing p ~first:warmup lat in
  let ratio x y = if y = 0 then 0. else float_of_int x /. float_of_int y in
  let qerrors = Quant.sorted a.qerrors in
  let q k = if Array.length qerrors = 0 then 0. else Quant.rank qerrors k in
  let per = per timed in
  let executed =
    if not p.execute then []
    else
      [
        ("qerror_p50", q 0.50);
        ("qerror_p90", q 0.90);
        ("plan_work_per_op", per (work a));
        ("exec.tuples_read_per_op", per a.tuples_read);
        ("exec.comparisons_per_op", per a.comparisons);
        ("exec.tuples_output_per_op", per a.tuples_output);
      ]
  in
  {
    ops_per_s;
    counts = a;
    metrics =
      [
        ("ops_per_s", ops_per_s);
        ("latency_p50_ms", p50);
        ("latency_p99_ms", p99);
        ("els.kernel_steps_per_op", per a.kernel_steps);
        ("els.fallback_steps_per_op", per a.fallback_steps);
        ("els.kernel_share", ratio a.kernel_steps (a.kernel_steps + a.fallback_steps));
        ("els.sel_cache_hit_ratio", ratio a.sel_hits a.sel_probes);
        ("optimizer.expansions_per_op", per a.expansions);
        ( "gc.minor_collections_per_op",
          per (gc1.Gc.minor_collections - gc0.Gc.minor_collections) );
        ( "gc.major_collections_per_op",
          per (gc1.Gc.major_collections - gc0.Gc.major_collections) );
        ("gc.minor_words_per_op", words /. float_of_int timed);
      ]
      @ executed;
  }

(* Total and self time (s) per span name over a trace forest. *)
let span_times roots =
  let total = Hashtbl.create 16 and self = Hashtbl.create 16 in
  let add h k v = Hashtbl.replace h k (v +. Option.value (Hashtbl.find_opt h k) ~default:0.) in
  let rec walk (s : Obs.Trace.span) =
    add total s.name s.duration_s;
    add self s.name
      (List.fold_left
         (fun acc (c : Obs.Trace.span) -> acc -. c.duration_s)
         s.duration_s s.children);
    List.iter walk s.children
  in
  List.iter walk roots;
  (total, self)

type traced = {
  layer_metrics : (string * float) list;
  trace_fields : (string * Obs.Json.t) list;  (** the trace file's content *)
}

(* The same timed ops once more with a tracer. Layer times come from here;
   end-to-end numbers never do. *)
let traced (p : Gen.plan) db ~truth ~warmup ~timed ~(untraced : measured) check =
  let tracer = Obs.Trace.create () in
  let lat =
    phase ~trace:tracer ~first:warmup ~count:timed (acc ()) p truth db check
  in
  let roots = Obs.Trace.roots tracer in
  let total, self = span_times roots in
  let t name = Option.value (Hashtbl.find_opt total name) ~default:0. in
  let op = t "op" in
  let us x = x /. float_of_int timed *. 1e6 in
  let pct x = if op > 0. then 100. *. x /. op else 0. in
  let per_unit x n = if n = 0 then 0. else x /. float_of_int n *. 1e9 in
  let sqlfront = t "parse" +. t "bind"
  and els = t "profile" +. t "kernel_compile" +. t "estimate"
  and optimizer = t "optimize"
  and exec = t "execute" in
  let shares = [ sqlfront; els; optimizer; exec ] in
  let traced_ops_per_s, _, _ = timing p ~first:warmup lat in
  let c = untraced.counts in
  {
    layer_metrics =
      [
        ("sqlfront.lex_us", us (t "lex"));
        ("sqlfront.parse_us", us (Float.max 0. (t "parse" -. t "lex")));
        ("sqlfront.bind_us", us (t "bind"));
        ("sqlfront.share_pct", pct sqlfront);
        ("els.profile_build_us", us (t "profile"));
        ("els.kernel_compile_us", us (t "kernel_compile"));
        ("els.estimate_us", us (t "estimate"));
        ("els.share_pct", pct els);
        ("optimizer.dp_us", us optimizer);
        ("optimizer.ns_per_expansion", per_unit optimizer c.expansions);
        ("optimizer.share_pct", pct optimizer);
        ( "obs.trace_overhead_pct",
          100. *. ((untraced.ops_per_s /. traced_ops_per_s) -. 1.) );
      ]
      @
      if not p.execute then []
      else
        [
          ("exec.execute_us", us exec);
          ("exec.share_pct", pct exec);
          ("exec.ns_per_work_unit", per_unit exec (work c));
        ];
    trace_fields =
      [
        ("timed_ops", Obs.Json.Int timed);
        ("op_wall_s", Obs.Json.Float op);
        ( "self_s",
          Obs.Json.Obj
            (List.sort compare (Hashtbl.fold (fun k v l -> (k, Obs.Json.Float v) :: l) self [])) );
        ("layer_share_sum_pct", Obs.Json.Float (List.fold_left (fun s x -> s +. pct x) 0. shares));
        ("trace", Obs.Trace.to_json tracer);
      ];
  }
