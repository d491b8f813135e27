(** Estimation algorithm configurations.

    The paper compares three algorithms, all expressible as settings of one
    estimator:

    - {b SM} — the "standard algorithm" with the multiplicative Rule M of
      Selinger et al.: every eligible join selectivity is multiplied in,
      and join selectivities are computed from {e base} column
      cardinalities, ignoring the effect of local predicates.
    - {b SSS} — the standard algorithm with Rule SS: within an equivalence
      class only the smallest eligible selectivity is used.
    - {b ELS} — the paper's algorithm: transitive closure, local-aware
      effective cardinalities (Section 5), single-table j-equivalent column
      handling (Section 6) and Rule LS (largest selectivity, Section 7).

    The combining rule itself is a first-class {!Estimator.t}; a
    configuration pairs one with the pipeline toggles (closure,
    local-awareness, single-table handling, strictness). Predicate
    transitive closure is a separate toggle because the paper's experiment
    runs SM both with and without the PTC rewrite. *)

type strictness = Catalog.Validate.strictness =
  | Strict  (** corrupt statistics / invariant breaches become errors *)
  | Repair  (** clamp and degrade, counting every repair (the default) *)
  | Trap  (** observe only: count violations, change nothing *)
(** How the pipeline reacts to corrupt catalog statistics and to runtime
    invariant breaches. Re-exported from {!Catalog.Validate} so callers
    configure it here without depending on the catalog layer. *)

type t = {
  closure : bool;
      (** derive implied predicates before estimating (PTC, step 2) *)
  estimator : Estimator.t;
      (** how per-class join selectivities combine, and any per-step
          cardinality cap *)
  local_aware : bool;
      (** use post-local-predicate column cardinalities in join
          selectivities (Section 5); the standard algorithm does not *)
  single_table : bool;
      (** apply the Section 6 treatment of j-equivalent columns within one
          table *)
  strictness : strictness;
      (** robustness mode for catalog validation and invariant guards;
          orthogonal to the estimation algorithm *)
}

val sm : ptc:bool -> t
(** Algorithm SM, optionally after the PTC rewrite. *)

val sss : t
(** Algorithm SSS (Rule SS "is sensible only when predicate transitive
    closure has been applied", so closure is always on). *)

val els : t
(** Algorithm ELS. *)

val pess : t
(** The pessimistic per-step bound {!Estimator.pess} under the ELS
    pipeline settings. *)

val of_estimator : ?strictness:strictness -> Estimator.t -> t
(** The estimator's canonical configuration: pipeline toggles from its
    {!Estimator.flags}, default strictness {!Repair}. *)

val panel : ?strictness:strictness -> unit -> t list
(** One canonical configuration per registry estimator, in registry
    order — the row set for estimator-comparison experiments. *)

val with_strictness : strictness -> t -> t

val with_estimator : Estimator.t -> t -> t
(** Swap the combining rule, keeping every pipeline toggle. *)

val name : t -> string
(** Short display name: "SM", "SM+PTC", "SSS", "ELS", "PESS", or a
    descriptive fallback for custom configurations. Strictness does not
    change the algorithm, so it only shows as a ["!strict"] / ["!trap"]
    suffix for the non-default modes. *)
