(** The long-running estimation service: multicore workers over an
    immutable catalog epoch, behind admission control.

    A {!t} owns a live catalog wrapped in a versioned {!Catalog.Store}
    plus the service-wide metrics registry; {!session} runs one ndjson
    protocol session ({!Protocol}) over a channel pair — stdin/stdout for
    [elsdb serve], a connection for {!serve_socket}, a pipe pair for the
    chaos harness and the tests, which drive {e this exact loop}.

    Topology: the session thread reads, parses and {e admits} frames into
    a bounded queue; [config.domains] OCaml 5 [Domain] workers pull
    admitted jobs, estimate against an atomically-pinned
    {!Catalog.Epoch} snapshot, and write responses (interleaved safely,
    correlated by request id). The server takes no catalog lock: the
    store locks itself ({!Catalog.Store}). [estimate], [explain] and
    [health] pin the epoch with one atomic read. [run] plans on the
    pinned epoch as [explain] does and executes on O(1) copies of the
    query's live relations ({!Catalog.Store.live_db}), so no writer waits
    for an execution. [analyze] is {!Catalog.Store.reanalyze} of each
    table and one {!Catalog.Store.publish}, which hold the store's lock
    to copy and to stage and publish, never while they scan. Robustness
    contract:

    - {e admission control}: a full queue sheds the newest request with a
      structured [Overloaded {depth; shed_policy}] response — never a
      silent drop; [health] is answered inline even under full load;
    - {e deadlines}: each request gets one {!Rel.Budget} covering queue
      wait + optimize + execute, so a slow request degrades down the
      anytime ladder (rung disclosed in the response) instead of wedging
      a worker, and a request whose deadline passes while queued is
      answered [budget-exhausted] without doing work;
    - {e crash isolation}: every raise inside a worker — parse damage,
      corrupt catalog, invariant trip — becomes a structured error
      response echoing the request id; the server loop never dies, and a
      dead client connection is recorded, not fatal;
    - {e epoch visibility}: workers pin the store's current epoch per
      request; ids only grow, and requests that see a quarantined table
      retry the pin with exponential backoff (bounded by
      [config.epoch_retries] and the request deadline) before serving
      stale-but-sane statistics with the staleness disclosed;
    - {e graceful drain}: a [drain] frame (or EOF, or {!request_stop})
      stops admission, finishes in-flight work under
      [config.drain_deadline_ms] and answers the drain with the session's
      counters. *)

type config = {
  domains : int;  (** worker domains per session (>= 1) *)
  queue_depth : int;  (** bounded admission queue (>= 1) *)
  default_deadline_ms : float option;
      (** deadline applied to requests that do not carry one *)
  max_frame_bytes : int;  (** frames longer than this are refused *)
  drain_deadline_ms : float;  (** how long a drain waits for in-flight work *)
  epoch_retries : int;
      (** re-pin attempts when the pinned epoch quarantines a query table *)
  retry_backoff_ms : float;  (** base backoff between re-pins (doubles) *)
  clock : (unit -> float) option;
      (** budget clock (seconds); [None] = wall clock. Injectable so tests
          can trip deadlines deterministically. *)
}

val default_config : config
(** 2 domains, depth-64 queue, no default deadline, 1 MiB frames, 5 s
    drain deadline, 2 epoch retries from 1 ms backoff, wall clock. *)

type session_stats = {
  frames : int;  (** frames read, including damaged ones *)
  admitted : int;  (** requests that entered the queue *)
  answered_ok : int;
  answered_error : int;  (** structured failures, malformed and shed included *)
  shed : int;  (** overload + draining rejections *)
  malformed : int;  (** frames that failed protocol parse *)
  internal_errors : int;  (** exception-firewall catches *)
  budget_trips : int;  (** requests answered [budget-exhausted] *)
  epoch_retries : int;  (** quarantine-triggered re-pins *)
  disconnected : bool;  (** the client's read side died mid-session *)
  drained : bool;  (** an explicit [drain] op completed *)
  drain_timed_out : bool;  (** drain gave up waiting for in-flight work *)
  max_epoch : int;  (** largest epoch id served during the session *)
}

type t

val create :
  ?config:config ->
  ?metrics:Obs.Metrics.t ->
  ?strictness:Catalog.Validate.strictness ->
  ?histogram:Stats.Histogram.kind ->
  ?histogram_buckets:int ->
  ?mcv:int ->
  Catalog.Db.t ->
  t
(** Wrap a live catalog: builds the versioned {!Catalog.Store} (epoch 0
    adopts the existing statistics) and the metrics registry. The catalog
    must hold stored relations (the [run] and [analyze] ops need live
    data). [strictness] governs the store's publish ladder (default
    [Repair]). [histogram], [histogram_buckets] and [mcv] are the ANALYZE
    options of {!Catalog.Store.create}, passed through as they are: every
    [analyze] op collects what they ask for, so a catalog whose tables
    were analyzed with histograms or MCV sketches should pass the same
    options to keep them. *)

val config : t -> config
val store : t -> Catalog.Store.t
val db : t -> Catalog.Db.t
(** The catalog passed to {!create}, unchanged: the store keeps live
    copies of its relations, so writes through {!store} never reach it. *)

val metrics : t -> Obs.Metrics.t
(** The service-wide registry: it receives each session's totals when the
    session ends (see {!session}), with the store's [store.*] totals; no
    request writes it. *)

val session : t -> in_channel -> out_channel -> session_stats
(** Run one protocol session to completion: reads frames until EOF (or a
    completed drain followed by EOF), spawns the worker domains, and
    returns after all in-flight work is answered. The session counts each
    event once, in its own counters; once its workers are joined, the
    registry ({!metrics}) receives the totals: each non-zero count is
    added to its [serve.*] counter (a counter no session moved stays
    absent), and each admitted job's latency goes into
    [serve.latency_ms], whose p50/p99 gauges are set from this session's
    latencies. Never raises on protocol or client damage. *)

val request_stop : t -> unit
(** Ask the server to drain: sessions stop admitting (subsequent frames
    are shed with policy ["draining"]) and {!serve_socket} stops
    accepting. Safe from a signal handler — this is the SIGTERM hook. *)

val serve_socket : t -> path:string -> unit
(** Listen on a Unix-domain socket and run one {!session} per accepted
    connection (each on its own thread, all sharing this server's store
    and metrics) until {!request_stop}. Removes [path] on exit.
    @raise Unix.Unix_error when the socket cannot be bound. *)
