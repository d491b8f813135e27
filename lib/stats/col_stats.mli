(** Per-column statistics.

    The two statistics the paper names as "typically important" — column
    cardinality [d] and value bounds — plus an optional histogram used only
    for local predicates, as permitted by the paper's weakened uniformity
    assumption.

    Columns analyzed from data also carry an {!Hll} distinct-count sketch.
    The sketch is never consulted by the estimators (the recorded
    [distinct] stays authoritative, so estimates are bit-stable across its
    introduction); it exists so shard statistics can be {!merge}d and so
    [Catalog.Validate] can audit recorded [d] against an independent
    measurement ("d-drift"). *)

type t = {
  distinct : int;            (** column cardinality [d]: distinct non-nulls *)
  nulls : int;
  min_value : Rel.Value.t option;
  max_value : Rel.Value.t option;
  histogram : Histogram.t option;
  mcv : Mcv.t option;
  distinct_sketch : Hll.t option;
      (** mergeable distinct sketch; [None] for catalog-supplied stats *)
  degree : Degree.t option;
      (** degree-sequence norms and top-k degrees ({!Degree}); analyzed
          columns always carry one, catalog-supplied stats never do. Like
          the sketch, it is never consulted by the 1994 rules — the
          recorded [distinct] stays authoritative — but the Lp-norm /
          entropy estimator caps read it. *)
}

val of_values :
  ?histogram:Histogram.kind ->
  ?histogram_buckets:int ->
  ?mcv:int ->
  ?degree_k:int ->
  Rel.Value.t array ->
  t
(** Exact statistics of a column from one {!Count_table} pass, which gives
    the distinct and null counts, the bounds, the degree sequence
    (top-[degree_k] entries, default {!Degree.default_k}) and, if [mcv] is
    given, a most-common-value sketch of that many entries. A histogram is
    built only when requested and the column is numeric ([histogram_buckets]
    defaults to 32); a distinct sketch is always built. *)

val trivial : distinct:int -> t
(** Statistics carrying only a distinct count; used when the caller supplies
    catalog numbers directly (as in the paper's worked examples). *)

val with_bounds : distinct:int -> lo:Rel.Value.t -> hi:Rel.Value.t -> t

val merge : rows:int -> t -> rows':int -> t -> t
(** [merge ~rows a ~rows':rows' b] combines the statistics of two disjoint
    shards of one column, where [rows]/[rows'] are the shard row counts
    (needed to weight MCV fractions and clamp the distinct estimate).
    [distinct] comes from the merged sketch when both sides carry one of
    equal precision, else from the shard-sum upper bound; nulls add;
    bounds widen; histograms, MCVs and degree sequences merge per their
    own algebras (degrees are dropped unless both shards carry them). *)

val pp : Format.formatter -> t -> unit
