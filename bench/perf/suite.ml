(* The five workloads. Op counts are fixed, not durations, so two commits
   do identical work: [ops] was calibrated once so that the timed phase
   takes about ten seconds on a 2-core machine at the commit that
   introduced the benchmark, and [--seconds] scales it linearly. *)

type kind =
  | Plan of (seed:int -> smoke:bool -> Gen.plan)
  | Serve of { churn : bool }

type t = {
  name : string;
  why : string;
  kind : kind;
  ops : int;  (** timed ops per 10 s of [--seconds] *)
  smoke_ops : int;
}

let all =
  [
    {
      name = "plan-eq";
      why =
        "SQL to plan for equality chains, stars and Section 8 under \
         m/ss/ls/pess: every step runs on the compiled kernel and DP \
         enumeration dominates";
      kind = Plan (fun ~seed ~smoke:_ -> Gen.plan_eq ~seed);
      ops = 2500;
      smoke_ops = 8;
    };
    {
      name = "plan-bounds";
      why =
        "the same plan path under lp2/degseq/ent and comparison joins, \
         where every step runs on the interpreted tier";
      kind = Plan (fun ~seed ~smoke:_ -> Gen.plan_bounds ~seed);
      ops = 3400;
      smoke_ops = 8;
    };
    {
      name = "exec-run";
      why =
        "SQL to plan to Executor.count over four join methods: executor \
         work dominates, with q-error and plan work alongside";
      kind =
        Plan
          (fun ~seed ~smoke ->
            Gen.exec_run ~seed ~scale:(if smoke then 10 else 1));
      ops = 1050;
      smoke_ops = 8;
    };
    {
      name = "serve-read";
      why =
        "small repeated estimate/explain requests over ndjson to an \
         in-process server: per-request overhead dominates";
      kind = Serve { churn = false };
      ops = 85_000;
      smoke_ops = 60;
    };
    {
      name = "serve-churn";
      why =
        "mostly unique requests plus run and analyze ops that take the \
         catalog lock and publish epochs; no cache can help";
      kind = Serve { churn = true };
      ops = 54_000;
      smoke_ops = 60;
    };
  ]

let names = List.map (fun w -> w.name) all
let find name = List.find_opt (fun w -> w.name = name) all
let traceable w = match w.kind with Plan _ -> true | Serve _ -> false

(* One client and no other domain: allocation and plan counts repeat
   exactly, so [compare] gates them exactly. *)
let deterministic = traceable

(* (timed, warm-up) op counts. The first 5% of ops, at least 20, warm
   caches and the allocator up untimed. *)
let counts w ~seconds ~smoke =
  if smoke then (w.smoke_ops, 2)
  else
    let timed =
      max 1 (int_of_float (Float.round (float_of_int (w.ops * seconds) /. 10.)))
    in
    (timed, max 20 (timed / 20))
