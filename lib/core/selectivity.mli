(** Join-predicate selectivities (Equation 2 of the paper).

    For an equality join predicate [J : (R₁.x₁ = R₂.x₂)],
    [S_J = 1 / max(d₁, d₂)], where the cardinalities come from the
    estimation profile — effective ([d′]) under a local-aware
    configuration, base otherwise. Comparison join predicates
    ([R₁.x₁ < R₂.x₂], band joins) are estimated by the histogram-CDF
    convolution of {!Stats.Selectivity_est} instead. *)

val of_cards : float -> float -> float
(** [of_cards d1 d2 = min 1 (1 / max d1 d2)]; 0 when either side is 0
    (a contradicted column joins nothing). *)

val join_with_sources :
  Profile.t ->
  Query.Predicate.t ->
  float * (Stats.Selectivity_est.source * Stats.Selectivity_est.source) option
(** Selectivity of a join predicate under the profile's configuration,
    with the statistics a comparison join's CDF convolution read
    ({!Profile.comparison_selectivity}).
    @raise Invalid_argument when the predicate is not a join predicate. *)

val join : Profile.t -> Query.Predicate.t -> float
(** The selectivity of {!join_with_sources}. *)

val group_by_class :
  Profile.t -> Query.Predicate.t list -> Query.Predicate.t list list
(** Partition join predicates by the equivalence class of their columns —
    the grouping Rules M/SS/LS operate on. Only equality predicates share
    a class-derived selectivity; each comparison (inequality/band)
    predicate forms its own singleton group and contributes an
    independent factor. Groups are ordered by their first predicate. *)
