(** Typed metrics registry: counters, gauges and histograms behind one
    snapshot / diff / JSON surface.

    The pipeline's statistics were historically scattered — profile cache
    hit/miss records, guard violation counts, catalog-repair tallies,
    budget usage, executor work counters, optimizer provenance — each with
    its own ad-hoc type and printer. A registry absorbs them all: live
    instruments for code that wants to increment in place, and
    [set_counter]/[set] absorption for modules that keep their own
    counters and publish totals at snapshot time.

    Instruments are identified by dot-separated names
    (["profile.cache.sel_hits"]). A snapshot is an immutable, sorted view;
    [diff] turns two snapshots into the activity between them. *)

type t
(** A registry. Not thread-safe. *)

type counter
(** Monotone non-negative integer. *)

type gauge
(** Arbitrary float, last-write-wins. *)

type histogram
(** Running summary (count / sum / min / max) of observed values. *)

val create : unit -> t

val counter : t -> string -> counter
(** Find-or-create. @raise Invalid_argument when the name is already
    registered as a different instrument kind. *)

val gauge : t -> string -> gauge
val histogram : t -> string -> histogram

val incr : ?by:int -> counter -> unit
(** [by] defaults to 1. @raise Invalid_argument when [by < 0]. *)

val set_counter : counter -> int -> unit
(** Absorb an externally-maintained monotone total: the counter becomes
    [max current total], so re-publishing an unchanged total is a no-op
    and the counter never regresses. *)

val set : gauge -> float -> unit
val observe : histogram -> float -> unit

val quantile : float array -> float -> float
(** [quantile sorted q]: the nearest-rank [q]-quantile of an ascending
    array — its [ceil (q·n)]-th element (1-based), so the p50 of
    [[|1.; 2.; 3.; 4.|]] is [2.] and the p99 of 1..100 is [99.]. [nan]
    for an empty array. *)

type summary = {
  count : int;
  sum : float;
  min : float;  (** [nan] when count = 0 *)
  max : float;  (** [nan] when count = 0 *)
}

type value =
  | Counter of int
  | Gauge of float
  | Histogram of summary

type snapshot
(** Immutable point-in-time view of a registry, sorted by name. *)

val snapshot : t -> snapshot

val diff : before:snapshot -> after:snapshot -> snapshot
(** Activity between two snapshots: counters and histogram counts/sums
    subtract (instruments absent from [before] count from zero); gauges
    and histogram min/max take [after]'s value. Instruments only present
    in [before] are dropped. *)

val find : snapshot -> string -> value option
val names : snapshot -> string list
val bindings : snapshot -> (string * value) list

val is_empty : snapshot -> bool

val to_json : snapshot -> Json.t
(** One object per instrument kind: [{"counters": {...}, "gauges": {...},
    "histograms": {name: {count, sum, min, max}}}]. Present even when
    empty, so consumers can rely on the shape. *)

val pp : Format.formatter -> snapshot -> unit
(** One [name value] line per instrument, sorted. *)
