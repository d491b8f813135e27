(** Hierarchical trace spans over the estimation pipeline.

    A tracer records a forest of named spans (parse → bind → validate →
    profile → optimize → execute), each with wall time and attributes.
    The clock is injectable (same pattern as [Rel.Budget]) so tests drive
    deterministic timelines.

    Recording is {e observation-only}: spans never influence what the code
    inside them computes, and every operation accepts an optional tracer
    so instrumented call sites cost one branch when tracing is off. *)

type t
(** A tracer: an in-progress forest of spans. Not thread-safe. *)

type span = {
  name : string;
  start_s : float;  (** on the tracer clock's timeline *)
  duration_s : float;
  attrs : (string * Json.t) list;  (** in attachment order *)
  children : span list;  (** in start order *)
}
(** One finished span. *)

val create : ?clock:(unit -> float) -> unit -> t
(** [clock] defaults to [Unix.gettimeofday]. *)

val with_span : t option -> string -> (unit -> 'a) -> 'a
(** [with_span (Some t) name f] runs [f] inside a new span nested under
    the innermost open span (or as a new root). The span closes when [f]
    returns {e or raises} — the exception is re-raised after closing.
    [with_span None name f] is exactly [f ()]. *)

val attr : t option -> string -> Json.t -> unit
(** Attach an attribute to the innermost open span. No-op without a
    tracer or outside any span. *)

val attr_str : t option -> string -> string -> unit
val attr_int : t option -> string -> int -> unit

val roots : t -> span list
(** Finished root spans, in start order. Spans still open (inside
    {!with_span}) are not included. *)

val pp : Format.formatter -> t -> unit
(** Render the span forest as an indented tree with per-span durations
    and attributes. *)

val to_json : t -> Json.t
(** [{"spans": [...]}] with per-span [name], [start_s], [duration_s],
    [attrs] and [children]. *)
