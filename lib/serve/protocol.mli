(** The estimation service's wire protocol: versioned ndjson frames.

    One request per line, one JSON object per request; one response line
    per request, echoing the request's [id] so responses may be written
    out of order by concurrent workers. The protocol is versioned through
    the [v] field (current version {!version}); a frame claiming any
    other version is refused with a structured error, never guessed at.

    Requests:
    {v
    {"v":1, "id":"r1", "op":"estimate", "sql":"SELECT ...",
     "estimator":"ls", "order":["s","m"], "deadline_ms":50}
    {"v":1, "id":"r2", "op":"explain", "sql":"...", "enumerator":"greedy"}
    {"v":1, "id":"r3", "op":"run", "sql":"...", "row_budget":10000}
    {"v":1, "id":"r4", "op":"analyze", "table":"s", "shards":4}
    {"v":1, "id":"r5", "op":"health"}
    {"v":1, "id":"r6", "op":"drain"}
    v}

    Responses are [{"id":..., "ok":true, ...}] or
    [{"id":..., "ok":false, "error":{"kind":..., "detail":...}}]. Every
    refusal — malformed frame, oversized frame, unsupported version,
    unknown op, shed request, tripped budget, internal exception — is a
    structured error response; the server never answers with silence. *)

val version : int
(** The protocol version this build speaks (1). Frames may omit [v]
    (treated as {!version}) but must not claim a different one. *)

type budget_spec = {
  deadline_ms : float option;
  node_budget : int option;
  row_budget : int option;
}
(** Per-request resource limits, realized as one {!Rel.Budget.t} spanning
    queue wait + optimize + execute. *)

type op =
  | Estimate of {
      sql : string;
      estimator : string option;
      order : string list option;  (** join order; default FROM order *)
    }
  | Explain of {
      sql : string;
      estimator : string option;
      enumerator : string option;  (** dp | greedy | random *)
    }
  | Run of {
      sql : string;
      estimator : string option;
      enumerator : string option;
    }
  | Analyze of {
      table : string option;  (** [None] = every table *)
      shards : int option;  (** >1 exercises partitioned ANALYZE *)
    }
  | Health
  | Drain

type request = { id : string option; op : op; budget : budget_spec }

val op_name : op -> string

val parse :
  ?max_frame_bytes:int ->
  string ->
  (request, string option * Els.Els_error.t) result
(** Parse one frame. Refusals are structured: JSON damage and caps map to
    [Parse_error] (the JSON parser itself is depth- and token-capped, so
    adversarial nesting cannot crash the boundary), a non-object frame,
    an unsupported [v], a missing/unknown [op] (with a did-you-mean hint)
    or an ill-typed field map to [Invalid_query]. The error carries any
    [id] the damaged frame managed to state, so the refusal can echo it.
    Never raises. *)

(** {1 Responses} *)

val response_ok :
  id:string option -> op:string -> (string * Obs.Json.t) list -> Obs.Json.t
(** [{"id":id, "ok":true, "op":op, ...fields}]. *)

val response_error :
  id:string option ->
  ?extra:(string * Obs.Json.t) list ->
  Els.Els_error.t ->
  Obs.Json.t
(** [{"id":id, "ok":false, "error":{"kind":..., "detail":..., ...}}].
    [Overloaded] carries [depth]/[shed_policy], [Budget_exhausted] carries
    [resource]/[site], [Parse_error] carries [position]. [extra] fields
    (e.g. the anytime-ladder provenance of a budget-tripped run) join the
    error object. *)

val error_kind : Els.Els_error.t -> string
(** ["missing-stats"], ["corrupt-stats"], ["invalid-query"],
    ["parse-error"], ["invariant-violation"], ["budget-exhausted"] or
    ["overloaded"] — the stable [error.kind] strings. *)
