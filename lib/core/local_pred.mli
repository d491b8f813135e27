(** Combining multiple local constant predicates on a single column
    (Section 4, step 3, summarizing the companion report RJ 9569 [16]):
    "the most restrictive equality predicate is chosen if it exists,
    otherwise we choose a pair of range predicates which form the tightest
    bound."

    Inequality ([<>]) predicates not subsumed by the chosen bounds
    contribute an independent [(1 - 1/d)] factor each. Contradictory
    conjunctions (e.g. [x = 3 AND x = 4], [x > 9 AND x < 2]) combine to
    selectivity 0. *)

type restriction =
  | Unrestricted  (** no constant predicate on the column *)
  | Equality of Rel.Value.t
      (** pinned to one value: the column cardinality drops to 1 *)
  | Range of float
      (** restricted with the given selectivity: [d′ = d × s] *)
  | Contradiction  (** provably empty: selectivity 0 *)

type combined = {
  selectivity : float; (** fraction of the table's rows surviving *)
  restriction : restriction;
  source : Stats.Selectivity_est.source option;
      (** the statistic behind an [Equality]'s selectivity or a [Range]'s
          bounds, from the evaluation that computed it; [None] when no
          equality or bound applies ([Unrestricted], [Contradiction], a
          [Range] of [<>] predicates only) *)
}

val combine :
  Stats.Col_stats.t -> (Rel.Cmp.t * Rel.Value.t) list -> combined
(** [combine stats preds] folds all constant predicates on one column.
    The empty list combines to selectivity 1, [Unrestricted]. *)

val reduced_distinct : Stats.Col_stats.t -> combined -> float
(** Effective column cardinality [d′] of the predicated column itself
    (Section 5): 1 for an equality, [max 1 (d × s)] for a restriction of
    selectivity [s] (a satisfiable restriction always leaves at least one
    value, keeping join selectivities [1/max(d′₁, d′₂)] at most 1), [d]
    when unrestricted, 0 for a contradiction. *)
