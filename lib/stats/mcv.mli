(** Most-common-value (MCV) sketches.

    The paper's future-work section calls for relaxing the uniformity
    assumption for "important data distributions such as the Zipfian
    distribution". The classic mechanism (used by the systems that later
    adopted ELS-style estimation) is to track the top-k values of a column
    with their exact frequencies and treat only the remainder as uniform.

    An MCV sketch complements a histogram: equality selectivities come
    from the sketch when the constant is tracked, and from the uniform
    remainder otherwise. *)

type entry = {
  value : Rel.Value.t;
  fraction : float;  (** exact fraction of non-null rows carrying [value] *)
}

type t

val build : k:int -> Rel.Value.t array -> t option
(** [build ~k values] tracks the [k] most frequent non-null values.
    Returns [None] when the column has no non-null values.
    @raise Invalid_argument when [k < 1]. *)

val of_table : k:int -> Count_table.t -> t option
(** [build] over a counted column ({!build} and {!Col_stats.of_values}):
    the entries are {!Degree.of_table}'s top [k], ties in value order. *)

val of_entries : entry list -> t
(** Raw constructor with NO validation — fractions may be NaN, negative or
    sum past 1 (the covered fraction is the unclamped sum). Exists so fault
    injection and tests can build deliberately corrupt sketches; real
    sketches come from {!build}, and [Catalog.Validate] rejects or repairs
    what this lets through. *)

val merge : float * t -> float * t -> t
(** [merge (rows1, a) (rows2, b)] combines two shard sketches, weighting
    each tracked fraction by its shard's non-null row count and keeping
    the top [max (tracked a) (tracked b)] values of the union. Exactly
    commutative; associative only within the truncation tolerance. A value
    tracked on one side but not the other is treated as absent from the
    other shard, under-counting it by at most that shard's untracked
    residual. Yields an empty sketch when [rows1 +. rows2 <= 0]. *)

val entries : t -> entry list
(** Tracked values, most frequent first. *)

val lookup : t -> Rel.Value.t -> float option
(** Exact fraction of rows with the given value, when tracked. Matching
    uses {!Rel.Value.equal_sem}, so a [Float] literal hits the tracked
    [Int] entry of an integer column. *)

val covered_fraction : t -> float
(** Total fraction of rows covered by the tracked values. *)

val tracked_count : t -> int

val remainder_eq_selectivity : t -> distinct:int -> float
(** Equality selectivity for an untracked value: the uncovered mass spread
    uniformly over the untracked distinct values; 0 when the sketch covers
    the whole column. When a stale catalog reports [distinct] at or below
    the tracked count while mass remains uncovered, the untracked
    population is treated as one value (the residual mass, clamped to
    [[0, 1]]) rather than estimating zero rows. *)

val pp : Format.formatter -> t -> unit
