(** Local-predicate selectivity from column statistics.

    Implements Section 4, step 3: "assign to each local predicate a
    selectivity estimate that incorporates any distribution statistics."
    Preference order: histogram when available and the constant is numeric,
    then min/max interpolation, then the uniform [1/d] rule, then classic
    System R default fractions as a last resort. Equality predicates
    additionally consult a most-common-value sketch ({!Mcv}) when one was
    collected, relaxing the uniformity assumption for skewed (e.g. Zipf)
    columns exactly as the paper's future-work section proposes. *)

val default_eq : float
(** Fallback equality selectivity (1/10, the System R default). *)

val default_range : float
(** Fallback range selectivity (1/3, the System R default). *)

type source =
  | Src_mcv  (** exact tracked frequency from the MCV sketch *)
  | Src_mcv_remainder  (** uniform share of the sketch's uncovered mass *)
  | Src_histogram
  | Src_interpolation
      (** linear interpolation between min/max bounds (for a
          comparison join's right column: its values spread uniformly
          between them) *)
  | Src_uniform  (** the uniform [1/d] rule *)
  | Src_bounds  (** constant outside the recorded bounds: zero rows *)
  | Src_default  (** System R default fraction *)
(** Which statistic produced an estimate — the d′ provenance vocabulary
    of the observability layer. Every estimate below returns the source
    of the branch that computed it, so the label and the number come from
    one decision. *)

val source_name : source -> string

val comparison_with_source :
  Col_stats.t -> Rel.Cmp.t -> Rel.Value.t -> float * source
(** [comparison_with_source stats op c] estimates the fraction of a
    column's rows [v] satisfying [v op c], in [[0, 1]], with the statistic
    that produced it. *)

val comparison : Col_stats.t -> Rel.Cmp.t -> Rel.Value.t -> float
(** The value of {!comparison_with_source}. *)

val range_pair_with_source :
  Col_stats.t ->
  lower:(Rel.Cmp.t * Rel.Value.t) option ->
  upper:(Rel.Cmp.t * Rel.Value.t) option ->
  float * source
(** Selectivity of a conjunction of a lower and an upper bound on the same
    column, estimated jointly (not as an independent product) so that
    [x > 10 AND x <= 20] is the mass of the interval. Missing sides default
    to the column bounds. The source is the one both sides read, or
    [Src_default] when either side fell back to the default (or neither
    side is given). *)

val range_pair :
  Col_stats.t ->
  lower:(Rel.Cmp.t * Rel.Value.t) option ->
  upper:(Rel.Cmp.t * Rel.Value.t) option ->
  float
(** The value of {!range_pair_with_source}. *)

val cdf_eval : Col_stats.t -> Rel.Cmp.t -> float -> float option
(** [cdf_eval stats op x] is the column's cumulative mass [P(v op x)] for
    [op] ∈ {[Lt], [Le]}, from the best available statistic (histogram,
    else min/max interpolation), or [None] when neither exists.
    @raise Invalid_argument for any other operator: only Lt/Le are
    cumulative queries, and the pre-restriction behaviour of silently
    answering with the at-or-below mass was a wrong-answer trap. *)

val join_comparison :
  Col_stats.t -> Rel.Cmp.t -> Col_stats.t -> float * (source * source)
(** [join_comparison left op right] estimates P(a op b) for [a] drawn from
    the left column and [b] from the right — the inequality-join
    generalization of the paper's rule 2d. The left column's CDF
    (histogram when present, min/max interpolation otherwise) is
    integrated over the right column's value distribution: point-mass
    buckets contribute exactly, interval buckets by the trapezoid rule.
    With no numeric statistics on either side the System R range default
    (1/3) applies. The value lies in [[0, 1]]; the sources are the
    statistics behind the left column's CDF and the right column's
    buckets, both [Src_default] when the default applied.
    @raise Invalid_argument for [Eq] and [Ne] (equality joins use the
    d-based rules; [Ne] is not a supported join comparison). *)

val join_band :
  Col_stats.t -> eps:float -> Col_stats.t -> float * (source * source)
(** [join_band left ~eps right] estimates P(|a - b| <= eps), the band-join
    selectivity, by the same convolution, with the same sources. Falls
    back to the equality default when no numeric statistics exist. The
    value lies in [[0, 1]]. *)
