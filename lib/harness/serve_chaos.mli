(** Experiment F15: protocol-level chaos against the estimation service.

    Drives the {e real} {!Serve.Server.session} loop — the same code
    [elsdb serve] runs — over pipe pairs, one randomized session at a
    time, and throws the full damage catalogue at it: malformed and
    truncated frames, random bytes, adversarially deep JSON nesting,
    oversized frames, unknown protocol versions and ops, ill-typed
    fields, microsecond-deadline storms, post-drain requests, abrupt
    mid-session client disconnects, and concurrent catalog churn
    (inserts, re-ANALYZEs and epoch publishes straight into the
    server's {!Catalog.Store} while requests are in flight).

    The robustness contract asserted:

    - {e zero crashes}: no session thread, worker domain or churn thread
      dies with an uncaught exception, and the server loop always
      reaches its post-EOF drain;
    - {e no hangs}: every session reaches EOF on the response stream
      within the client watchdog;
    - {e total accounting}: every request frame that carried an id is
      answered exactly once with that id (shed and malformed included —
      never a silent drop), and every id-less damaged frame gets exactly
      one anonymous structured refusal;
    - {e monotone epoch visibility}: ordered-probe sessions (one worker
      domain, no churn, no inline-answered ops, so wire order equals
      processing order) must see non-decreasing epoch ids on the wire,
      and no session may see an epoch newer than the store's final one;
    - {e no firewall hits}: the per-request exception firewall is a last
      line of defense — protocol damage must be refused by parsing, not
      by catching, so [internal_errors] must stay zero;
    - {e visible load shedding}: across a full run, sheds, malformed
      refusals and budget trips must all actually occur (the chaos must
      chaose), with p50/p99 latency and shed/retry/drain counters
      published to the shared {!Obs.Metrics} registry.

    The generated script — every session's frames, kind and churn — is
    deterministic given [seed], and so is its {!script} record. The
    outcome counts are not: how many requests are answered, shed or
    tripped depends on how the worker domains, the churn thread and the
    client interleave. Only {!pass} checks them. A failure report carries
    the session index and the one-command repro. *)

(** What the run sent: a function of [seed] and [sessions] alone. *)
type script = {
  sessions : int;
  seed : int;
  frames_sent : int;
  valid_sent : int;  (** well-formed protocol requests *)
  malformed_sent : int;  (** frames expected to be refused *)
  oversized_sent : int;
  disconnect_sessions : int;  (** sessions that cut the response pipe *)
  ordered_sessions : int;  (** wire-order epoch probes *)
  churn_sessions : int;  (** sessions with a concurrent catalog mutator *)
}

(** A run's script and its outcome counts, which vary with scheduling. *)
type summary = {
  script : script;
  answered_ok : int;
  answered_error : int;
  shed : int;
  budget_trips : int;
  epoch_retries : int;
  internal_errors : int;  (** firewall catches — failure when nonzero *)
  drains : int;
  drain_timeouts : int;
  unanswered : int;  (** id-accounting mismatches — failure *)
  bad_responses : int;  (** response lines that failed to parse — failure *)
  epoch_regressions : int;  (** wire-order or future-epoch breaches — failure *)
  hangs : int;  (** watchdog trips — failure *)
  crashes : int;
  first_failure : string option;
  elapsed_s : float;
  metrics : Obs.Metrics.snapshot;
      (** the shared service registry: ["serve.*"] counters, latency
          histogram with p50/p99 gauges, absorbed ["store.*"] totals *)
}

val run : ?seed:int -> ?watchdog_s:float -> sessions:int -> unit -> summary
(** Defaults: seed 1, 60 s per-session watchdog. The script is
    deterministic given [seed]; the outcome counts are not. *)

val pass : summary -> bool
(** Zero crashes, hangs, unanswered/bad responses, epoch regressions and
    internal errors; for runs of at least 50 sessions the chaos must
    demonstrably fire (sheds, malformed refusals and budget trips all
    nonzero). *)

val render : summary -> string
