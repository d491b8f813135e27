(** First-class selectivity estimators.

    The paper treats Rules M, SS and LS (Section 7) as interchangeable
    strategies for combining the eligible join selectivities of one
    equivalence class. This module lifts that idea into a value: an
    estimator is plain data — a stable identity, one {!combine} arm and
    one {!cap} arm — and every consumer ({!Profile}, {!Incremental}, the
    optimizers and the harness panels) works against this seam instead of
    matching on an enum. Both estimation tiers read the same two arms: the
    list-scan reference tier through {!fold} and {!bound}, the compiled
    {!Kernel} through monomorphic cases of its own, so the two cannot
    disagree about which arithmetic an estimator means.

    The registry holds the seven built-in estimators, so experiment
    panels, the CLI [--estimator] flag and report labels all draw from one
    source of truth. *)

type flags = {
  closure : bool;  (** run predicate transitive closure by default *)
  local_aware : bool;  (** use post-local-predicate cardinalities *)
  single_table : bool;  (** Section 6 single-table j-equivalence *)
}
(** The pipeline toggles an estimator expects in its canonical
    configuration ({!Config.of_estimator}). They are defaults, not
    requirements: a {!Config.t} may override any of them. *)

(** How one equivalence class folds its eligible join selectivities
    into a single factor ({!fold}); every arm combines the empty list to
    1 (a cartesian step). *)
type combine =
  | Product  (** Rule M: multiply every selectivity, from 1 *)
  | Smallest  (** Rule SS: NaN-propagating minimum, seeded with 1 *)
  | Largest  (** Rule LS: NaN-propagating maximum, seeded with the head *)
  | Unit  (** classes contribute 1: the bound lives in the cap *)

(** The per-step output-cardinality cap ({!bound}). Applied only to
    predicate-connected steps, as [min(raw, bound)] — a cartesian step has
    no equality class to justify a bound. The degree arms fold
    [Float.min] over the degree pairs of the step's bridging equality
    predicates and degrade to min-rows without them. *)
type cap =
  | No_cap
  | Min_rows  (** pessimistic degree-1 bound: min(‖R1‖′, ‖R2‖′) *)
  | Lp2  (** seeded with min-rows, each pair's L2(a)·L2(b) *)
  | Degseq
      (** seeded at +∞, each pair's [Stats.Degree.join_bound a b] *)
  | Ent  (** seeded at +∞, each pair's min(‖R1‖′·L∞(b), ‖R2‖′·L∞(a)) *)

type step_input = {
  left_rows : float;  (** effective size of the already-joined side *)
  right_rows : float;  (** effective size of the newly-joined side *)
  degrees : (Stats.Degree.t * Stats.Degree.t) list;
      (** one pair per bridging {e equality} predicate whose endpoint
          columns both carry ANALYZE-collected degree sequences, ordered
          (already-joined side a, newly-joined side b). Comparison
          predicates and catalog-supplied columns contribute no pair. *)
}
(** Everything a per-step cap may consult. The degree statistics are the
    {e base tables}' ({!Stats.Degree} on {!Stats.Col_stats.degree}):
    exact for a two-way step, a heuristic for later steps whose left
    input is an intermediate result. *)

type t = {
  id : string;
      (** stable lowercase identifier; registry key, cache key and CLI
          name. Never rename an id: memo caches and scripts depend on
          it. *)
  label : string;  (** short display name used in report tables *)
  summary : string;  (** one-line description for help output *)
  combine : combine;
  cap : cap;
  flags : flags;
}
(** Any record runs on the compiled kernel's allocation-free arms,
    registry entry or not: a copy of {!m} under another [id] estimates as
    {!m} does. *)

val fold : combine -> float list -> float
(** The reference arithmetic of a combine arm over one class's
    selectivities, in the order given. *)

val bound : cap -> step_input -> (float * string) option
(** The reference arithmetic of a cap arm: [None] for {!No_cap},
    otherwise the bound and the label of the term that produced it (e.g.
    which degree norm, or min-rows), which the derivation card prints. A
    cap that takes the [Float.min] of several terms labels the first term
    reaching the minimum. *)

val id : t -> string
val label : t -> string

val equal : t -> t -> bool
(** Identity is the [id] string, not the arms: a copy under another id is
    another estimator. *)

val m : t
(** Rule M (multiplicative): the product of the class's selectivities. *)

val ss : t
(** Rule SS: the smallest selectivity of the class. *)

val ls : t
(** Rule LS: the largest selectivity of the class. *)

val pess : t
(** Pessimistic per-step upper bound: classes combine to 1 and each
    predicate-connected step is capped at [min(|R1|', |R2|')] — the
    cross-product-free degree-1 specialization of the Lp-norm
    degree-sequence bounds (Abo Khamis & Olteanu). On key-join chains it
    coincides with the true size; elsewhere it is a cheap sanity bound
    rather than an estimate. *)

val lp2 : t
(** AGM/Lp-norm step cap [min(|R1|', |R2|', L2(a)·L2(b))]: the
    Cauchy–Schwarz join-size bound from the bridging columns' degree
    L2 norms (Join Size Bounds using Lp-Norms on Degree Sequences). With
    no degree statistics on a step it degrades to PESS's min-rows. The
    cap's label names whichever term bound the step: min-rows or the L2
    norms. *)

val degseq : t
(** Degree-sequence two-approximation (Instance Optimal Join Size
    Estimation): per step, the pairwise product of the two descending
    degree sequences — top-k entries exactly, tails capped by
    [min(tail-mass·tail-max)] ({!Stats.Degree.join_bound}), min over the
    bridging predicates. Degrades to min-rows without degree stats. *)

val ent : t
(** Entropy-style max-degree bound: per step
    [min(|R1|'·L∞(b), |R2|'·L∞(a))] — the two-relation degenerate form of
    the polymatroid/entropic bounds (Information Theory Strikes Back):
    every left row matches at most the right column's max degree.
    Degrades to min-rows without degree stats. *)

val registry : unit -> t list
(** The seven built-in estimators: [m], [ss], [ls], [pess] first, then
    the degree-statistics family [lp2], [degseq], [ent]. *)

val ids : unit -> string list
(** The registry's ids, in registry order. *)

val find : string -> t option
(** Case-insensitive lookup by [id] or [label]. *)

val of_string : string -> (t, string) result
(** Like {!find}, but an unknown name yields a one-line message listing
    the registry's ids with a did-you-mean suggestion
    ({!Catalog.Suggest}). *)

val of_string_exn : string -> t
(** @raise Invalid_argument with the {!of_string} message. *)
