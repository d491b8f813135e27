(** First-class selectivity estimators.

    The paper treats Rules M, SS and LS (Section 7) as interchangeable
    strategies for combining the eligible join selectivities of one
    equivalence class. This module lifts that idea into a value: an
    estimator is a record of functions with a stable identity, and every
    consumer — {!Profile}, {!Incremental}, the optimizers and the harness
    panels — works against this seam instead of matching on an enum.

    Estimators live in a registry so experiment panels, the CLI
    [--estimator] flag and report labels all draw from one source of
    truth and can pick up third-party estimators registered at startup. *)

type flags = {
  closure : bool;  (** run predicate transitive closure by default *)
  local_aware : bool;  (** use post-local-predicate cardinalities *)
  single_table : bool;  (** Section 6 single-table j-equivalence *)
}
(** The pipeline toggles an estimator expects in its canonical
    configuration ({!Config.of_estimator}). They are defaults, not
    requirements: a {!Config.t} may override any of them. *)

type step_input = {
  left_rows : float;  (** effective size of the already-joined side *)
  right_rows : float;  (** effective size of the newly-joined side *)
  degrees : (Stats.Degree.t * Stats.Degree.t) list;
      (** one pair per bridging {e equality} predicate whose endpoint
          columns both carry ANALYZE-collected degree sequences, ordered
          (already-joined side, newly-joined side). Comparison predicates
          and catalog-supplied columns contribute no pair, so caps must
          degrade gracefully on an empty list. *)
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
  combine : float list -> float;
      (** fold one equivalence class's eligible join selectivities into a
          single factor; the empty list must combine to 1 (a cartesian
          step) *)
  cap : (step_input -> float * string) option;
      (** optional per-step output-cardinality cap: the bound, and the
          label of the term that produced it (e.g. which degree norm, or
          min-rows), which the derivation card prints. A cap that takes
          the [Float.min] of several terms labels the first term reaching
          the minimum. Applied by {!Incremental} only to
          predicate-connected steps — a cartesian step has no equality
          class to justify a bound. Caps other than PESS's min-rows lower
          to the compiled kernel as a closure, which ignores the label. *)
  flags : flags;
}

val id : t -> string
val label : t -> string

val equal : t -> t -> bool
(** Identity is the [id] string — never structural equality, which would
    raise on the closures inside. *)

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
(** All registered estimators, in registration order; the built-ins
    [m], [ss], [ls], [pess] come first, then the degree-statistics family
    [lp2], [degseq], [ent]. *)

val register : t -> unit
(** Append a new estimator to the registry.
    @raise Invalid_argument on a duplicate [id]. *)

val ids : unit -> string list
(** The registered ids, in registry order. *)

val find : string -> t option
(** Case-insensitive lookup by [id] or [label]. *)

val of_string : string -> (t, string) result
(** Like {!find}, but an unknown name yields a one-line message listing
    the registered ids with a did-you-mean suggestion
    ({!Catalog.Suggest}). *)

val of_string_exn : string -> t
(** @raise Invalid_argument with the {!of_string} message. *)
