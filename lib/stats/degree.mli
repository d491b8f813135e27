(** Degree sequences of join columns.

    For a column [a] of relation [R], the degree of a value [v] is the
    number of rows of [R] carrying [v] in [a]. The descending sequence of
    all degrees — summarized here by its Lp norms and its top-k heaviest
    entries — is the statistic behind the modern worst-case join-size
    bounds: [L1] (the non-null row count), [L2] (the Cauchy–Schwarz /
    AGM bound ‖a‖₂·‖b‖₂ on a two-way join), [L∞] (the max degree, the
    polymatroid bound |R|·L∞), and the pairwise top-k product of
    {!join_bound} (the degree-sequence two-approximation of Instance
    Optimal Join Size Estimation; see PAPERS.md).

    The top-k entries are value-keyed, like {!Mcv}, so per-shard
    statistics can be {!merge}d (a value split across shards has its
    degrees summed when both shards track it).

    {2 Merge tolerance}

    [merge] is exact for [L1] always. When both inputs are {!complete}
    (every distinct value tracked, i.e. the column's distinct count is at
    most the tracked capacity [k]), [L∞], [L2] and the top-k are exact
    too. Otherwise they are {e lower bounds} of the bulk statistic that
    still dominate each input shard's value — untracked values split
    across shards contribute their per-shard mass but not their cross
    terms. [Analyze.partitions] therefore matches bulk ANALYZE exactly on
    low-cardinality columns and within these one-sided bounds on
    high-cardinality ones; the property test in [test_merge.ml] pins both
    regimes. *)

type t = {
  l1 : float;  (** Σ degrees = non-null row count *)
  l2_sq : float;  (** Σ degree², kept squared so merges stay additive *)
  linf : float;  (** max degree *)
  top : (Rel.Value.t * float) array;  (** top-k (value, degree), heaviest first *)
  k : int;  (** tracked capacity *)
  complete : bool;  (** every distinct value is tracked in [top] *)
}

val default_k : int
(** Tracked-capacity default (32). *)

val of_values : ?k:int -> Rel.Value.t array -> t
(** Exact degree statistics of a column; nulls carry no degree. *)

val of_counts : ?k:int -> (Rel.Value.t * int) list -> t
(** Build from precomputed per-value counts (nulls and non-positive
    counts are ignored). *)

val of_table : ?k:int -> Count_table.t -> t
(** Build from a counted column ({!of_values} and {!Col_stats.of_values}):
    its slots go through {!of_counts}' per-entry step, in table order. *)

val merge : t -> t -> t
(** Combine the statistics of two disjoint shards of one column, per the
    tolerance contract above. *)

val join_bound : t -> t -> float
(** Upper bound on [Σᵢ aᵢ·bᵢ] over the two descending degree sequences —
    the size of the two-way join under the maximal coupling. Exact over
    the tracked prefixes; the untracked tails are capped by
    [min(tail-mass(a)·tail-max(b), tail-mass(b)·tail-max(a))]. *)

val l1 : t -> float
val l2 : t -> float
(** [sqrt l2_sq]. *)

val l2_sq : t -> float
val linf : t -> float
val complete : t -> bool
val tracked : t -> (Rel.Value.t * float) list
val top_degrees : t -> float array

val pp : Format.formatter -> t -> unit
