(* Every metric the benchmark reports: its unit, which way is better, and
   how [compare] gates it. [section] says where BENCHMARK.json lists it;
   the smoke test checks that file against this table. *)

type better = Lower | Higher

type gate =
  | Relative of float  (** may worsen by this share of the parent median *)
  | Absolute of float  (** may worsen by this amount *)
  | Exact
      (** deterministic on single-client workloads: any move in the worse
          direction is a regression *)
  | Ungated  (** diagnostic only *)

type section = End_to_end | Per_layer | Unlisted

type spec = {
  name : string;
  unit_ : string;
  better : better;
  gate : gate;
  section : section;
}

let m ?(better = Lower) ?(gate = Ungated) ?(section = Per_layer) name unit_ =
  { name; unit_; better; gate; section }

let e2e ?better name unit_ bound =
  m ?better ~gate:(Relative bound) ~section:End_to_end name unit_

let exact ?better name unit_ = m ?better ~gate:Exact name unit_

(* On a shared 2-vCPU host the end-to-end timings of ten seeded runs spread
   6-14% (interquartile range over median, README.md), so a timing may
   worsen by a quarter before [compare] calls it worse. *)
let specs =
  [
    (* end to end *)
    e2e "setup_s" "s" 0.25;
    e2e ~better:Higher "ops_per_s" "ops/s" 0.25;
    e2e "latency_p50_ms" "ms" 0.25;
    e2e "latency_p99_ms" "ms" 0.25;
    (* 0 on every accepted run, so the result line's [failed] carries it
       to BENCHMARK.json instead *)
    m ~gate:(Absolute 0.) ~section:Unlisted "error_rate" "failed/attempted";
    e2e "peak_rss_mb" "MiB" 0.10;
    exact "qerror_p50" "ratio";
    exact "qerror_p90" "ratio";
    exact "plan_work_per_op" "work/op";
    (* sqlfront *)
    m "sqlfront.lex_us" "us";
    m "sqlfront.parse_us" "us";
    m "sqlfront.bind_us" "us";
    m "sqlfront.share_pct" "%";
    (* els *)
    m "els.profile_build_us" "us";
    m "els.kernel_compile_us" "us";
    m "els.estimate_us" "us";
    m "els.share_pct" "%";
    exact "els.kernel_steps_per_op" "steps/op";
    exact "els.fallback_steps_per_op" "steps/op";
    exact ~better:Higher "els.kernel_share" "ratio";
    exact ~better:Higher "els.sel_cache_hit_ratio" "ratio";
    (* optimizer *)
    exact "optimizer.expansions_per_op" "expansions/op";
    m "optimizer.dp_us" "us";
    m "optimizer.ns_per_expansion" "ns";
    m "optimizer.share_pct" "%";
    (* exec *)
    m "exec.execute_us" "us";
    m "exec.share_pct" "%";
    exact "exec.tuples_read_per_op" "tuples/op";
    exact "exec.comparisons_per_op" "comparisons/op";
    exact "exec.tuples_output_per_op" "tuples/op";
    m "exec.ns_per_work_unit" "ns";
    (* set-up *)
    m "catalog.analyze_s" "s";
    m "datagen.generate_s" "s";
    (* serve *)
    m "serve.rtt_estimate_p50_ms" "ms";
    m "serve.rtt_explain_p50_ms" "ms";
    m "serve.rtt_run_p50_ms" "ms";
    m "serve.rtt_analyze_p50_ms" "ms";
    m "serve.server_latency_p50_ms" "ms";
    m "serve.server_latency_p99_ms" "ms";
    m ~gate:(Absolute 0.) "serve.shed" "count";
    m "serve.cpu_us_per_req" "us";
    exact ~better:Higher "serve.repeat_share" "ratio";
    (* runtime *)
    m "gc.minor_collections_per_op" "count/op";
    m "gc.major_collections_per_op" "count/op";
    exact "gc.minor_words_per_op" "words/op";
    m "obs.trace_overhead_pct" "%";
  ]

let find name = List.find_opt (fun s -> s.name = name) specs

let better_name = function Lower -> "lower" | Higher -> "higher"
