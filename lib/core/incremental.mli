(** Incremental join-result-size estimation (step 6 of Algorithm ELS,
    Section 7).

    The estimator mirrors what a join-ordering optimizer does: start from
    one table, extend the intermediate result one table at a time, and
    estimate the size after each extension. At each step the {e eligible}
    join predicates — those linking the incoming table to tables already in
    the intermediate result — are grouped by equivalence class, each class
    contributes a single combined selectivity according to the configured
    {!Estimator.t} (Rule M: product of all; SS: smallest; LS: largest), and
    classes multiply together by independence.

    [size(I ⋈ R) = size(I) × ‖R‖′ × ∏_classes S_class].

    An estimator with a per-step cardinality cap ({!Estimator.cap}, e.g.
    the pessimistic degree-1 bound) additionally bounds each
    predicate-connected step's output by [cap ~left_rows ~right_rows];
    cartesian steps are never capped.

    This is the inner loop of exact DP enumeration (2ⁿ subsets), so the
    state carries the joined set as an int bitset over the profile's
    canonical table → bit mapping.

    Two implementation tiers produce bit-identical numbers and serve as
    each other's differential baselines:
    {!step_selectivity}/{!extend}/{!join_states} run on the profile's
    compiled {!Kernel} (see {!Profile.kernel}), for every estimator and
    every join predicate; the list-scan reference tier
    ({!eligible_scan}, {!step_selectivity_scan}, {!extend_scan},
    {!join_states_scan}) recomputes everything from the profile's
    statistics and records derivation cards ({!derive}). *)

type state = {
  mask : int;
      (** bitset of the tables in the intermediate result, over
          {!Profile.table_bit}'s canonical mapping *)
  size : float;  (** estimated cardinality of the intermediate result *)
  rev_history : float list;
      (** size after each extension, {e newest} first (O(1) extension);
          empty for a single table. Use {!history} for the oldest-first
          view. *)
}

val joined : Profile.t -> state -> string list
(** Tables in the intermediate result, in canonical (FROM) order. *)

val history : state -> float list
(** Size after each extension, oldest first; empty for a single table. *)

val start : Profile.t -> string -> state
(** Intermediate result consisting of one base table; size is its effective
    cardinality [‖R‖′]. *)

val eligible : Profile.t -> state -> string -> Query.Predicate.t list
(** Join predicates of the working conjunction linking the given table to
    the current intermediate result, in conjunction order — an O(degree)
    probe of the profile's per-table predicate index. *)

val step_selectivity : Profile.t -> state -> string -> float
(** Combined selectivity the configured estimator assigns to joining the
    given table next; 1.0 for a cartesian product. Selectivity only — a
    per-step {!Estimator.cap} shows up in {!extend}'s size, not here. *)

val extend : Profile.t -> state -> string -> state
(** Join one more table.
    @raise Invalid_argument when the table is already in the result.
    @raise Not_found when it is not part of the profiled query. *)

val join_states : Profile.t -> state -> state -> state
(** Generalization of {!extend} to bushy joins: combine two intermediate
    results, applying one estimator-combined selectivity per equivalence
    class among the predicates that bridge them.
    [size(I₁ ⋈ I₂) = size(I₁) × size(I₂) × ∏_classes S_class].
    @raise Invalid_argument when the two states share a table. *)

val estimate_order : Profile.t -> string list -> state
(** Fold {!start}/{!extend} over a complete join order.
    @raise Invalid_argument on the empty list. *)

val final_size : Profile.t -> string list -> float
(** Estimated size of the full join along the given order. *)

(** {2 The list-scan reference tier}

    The obviously-correct implementation over explicit joined-table lists:
    every call scans the entire working conjunction, groups through
    {!Selectivity.group_by_class} and recomputes every selectivity — no
    index, no cache, no kernel. It applies the kernel's guard sites and
    cap, so it agrees with {!extend}/{!join_states} bit for bit, even when
    a guard trips. Each step bumps the profile's
    [cache_stats.reference_steps]. *)

val eligible_scan :
  Profile.t -> string list -> string -> Query.Predicate.t list
(** [eligible_scan profile joined name] — O(#predicates × #joined). *)

val step_selectivity_scan : Profile.t -> string list -> string -> float
(** Guarded per-class estimator combination over {!eligible_scan}. *)

val extend_scan : Profile.t -> state -> string -> state
(** {!extend} on the reference tier. *)

val join_states_scan : Profile.t -> state -> state -> state
(** {!join_states} on the reference tier. *)

val estimate_order_scan : Profile.t -> string list -> state
(** {!estimate_order} on the reference tier. *)

val derive : Profile.t -> Obs.Derivation.t -> string list -> state
(** [derive profile sink order] is {!estimate_order_scan} recording its
    derivation into [sink]: first the profile's staleness annotations,
    then the base table, then one {!Obs.Derivation.step} per join with
    the classes, rules, input selectivities, d′ provenance and cap behind
    its output. Steps are recorded as they complete, so when a guard trip
    raises mid-order the sink keeps the partial card. Never changes a
    computed number: the returned history equals {!estimate_order}'s. *)
