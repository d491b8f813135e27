(** Runtime invariant guards for the estimator's hot paths.

    ELS's math gives every produced number a checkable range: join and
    local selectivities lie in [(0, 1]] (0 is allowed — contradictory
    predicates produce empty results), effective column cardinalities in
    [[1, d]], and intermediate-result cardinalities are finite,
    non-negative, and never exceed the cartesian bound. A guard sits at
    each production site; a value inside its range passes through with a
    branch and no allocation, a value outside it is a {e violation}
    handled per the configured {!Config.strictness}:

    - [Strict] — raise {!Els_error.Invariant_violation} naming the site;
    - [Repair] — clamp into range and count the repair;
    - [Trap] — count the violation and pass the value through unchanged
      (observe-only, for measuring how far bad inputs propagate).

    Counters are surfaced via {!stats} the same way profile cache
    statistics are. *)

type stats = {
  mutable violations : int;  (** out-of-range values detected *)
  mutable repairs : int;  (** violations clamped (Repair mode only) *)
  mutable fallbacks : int;
      (** graceful degradations that are not violations: e.g. a column
          with no recorded statistics estimated from the worst-case
          trivial profile *)
}

type t

val create : Config.strictness -> t
val mode : t -> Config.strictness
val stats : t -> stats

val note_fallback : t -> unit

val absorb : into:t -> t -> unit
(** [absorb ~into g] adds [g]'s counters to [into]'s and zeroes [g]'s:
    how a guard that counted one domain's share of a computation hands
    its counts back (see {!Kernel.absorb}). *)

val clear : t -> unit
(** Zero the counters: the counts of an attempt that is thrown away. *)

val selectivity : t -> site:string -> float -> float
(** Guard a selectivity against [[0, 1]]. NaN and negative values repair
    to 0, values above 1 repair to 1. [site] names the production site
    for the error/telemetry, e.g. ["Profile.join_selectivity"]. *)

val cardinality : ?upper:float -> t -> site:string -> float -> float
(** Guard a (fractional) cardinality: finite, non-negative, and at most
    [upper] (default [infinity], i.e. only finiteness is checked when no
    tighter bound is known). NaN and negative repair to 0, values above
    the bound repair to the bound. *)

val distinct : t -> site:string -> d:float -> float -> float
(** [distinct t ~site ~d d'] guards an effective column cardinality
    against [[1, max 1 d]] (paper Section 5: local predicates can only
    shrink a column's value set, and a nonempty relation keeps at least
    one value). *)
