(** Algorithm ELS — Equivalence and Largest Selectivity.

    Library root. Reproduces Swami & Schiefer, "On the Estimation of Join
    Result Sizes" (EDBT 1994): incremental, consistent estimation of join
    result sizes using equivalence classes of join columns, local-predicate
    effects on table and column cardinalities, and the Largest Selectivity
    rule — together with the baseline algorithms (SM, SSS) the paper
    compares against.

    Typical use:
    {[
      let profile = Els.prepare Els.Config.els db query in
      let state = Els.Incremental.estimate_order profile ["b"; "g"; "m"; "s"] in
      state.Els.Incremental.size
    ]} *)

module Eqclass = Eqclass
module Closure = Closure
module Local_pred = Local_pred
module Estimator = Estimator
module Config = Config
module Profile = Profile
module Selectivity = Selectivity
module Incremental = Incremental
module Els_error = Els_error
module Guard = Guard
module Kernel = Kernel

val prepare :
  ?trace:Obs.Trace.t ->
  ?annotations:string list ->
  Config.t ->
  Catalog.Db.t ->
  Query.t ->
  Profile.t
(** The preliminary phase (steps 1–5): dedup, closure, equivalence classes,
    local-predicate effects, single-table handling, the hot-path predicate
    indexes and everything join selectivities need. {!Profile.build}, plus
    eager compilation of the profile's estimation {!Kernel} so enumeration
    never pays it mid-plan. [trace] records "profile"/"validate" spans,
    [annotations] are staleness notes for derivation cards. *)

val prepare_epoch :
  ?trace:Obs.Trace.t ->
  Config.t ->
  Catalog.Epoch.t ->
  Query.t ->
  Profile.t
(** {!prepare} against a pinned catalog epoch. The profile reads only the
    epoch's frozen statistics — later {!Catalog.Store.publish}es cannot
    change its numbers — and inherits the epoch's staleness annotations
    for the query's tables, so an explain card discloses any
    last-known-good fallback behind the estimate. *)

val estimate : Config.t -> Catalog.Db.t -> Query.t -> string list -> float
(** One-shot: prepare and estimate the final join result size along the
    given join order. *)

val intermediate_sizes :
  Config.t -> Catalog.Db.t -> Query.t -> string list -> float list
(** Sizes after each join of the order — the numbers reported in the
    paper's Section 8 table. *)

(** {1 Result-typed entry points}

    The same operations with every failure reified as {!Els_error.t}:
    structured errors from [Strict]-mode validation, invariant breaches,
    unknown tables/columns, and structural limits. These never raise, and
    additionally reject any non-finite or negative final estimate — a
    NaN that sneaks through [Trap] mode surfaces here as
    [Invariant_violation] instead of poisoning the caller. *)

val prepare_result :
  ?trace:Obs.Trace.t ->
  Config.t ->
  Catalog.Db.t ->
  Query.t ->
  (Profile.t, Els_error.t) result
(** {!Profile.build_result} plus eager kernel compilation; a [Strict]-mode
    guard breach during compilation is reified like any build failure. *)

val estimate_result :
  Config.t ->
  Catalog.Db.t ->
  Query.t ->
  string list ->
  (float, Els_error.t) result
(** [Ok] estimates are always finite and non-negative. *)

val estimate_order_result :
  Config.t ->
  Catalog.Db.t ->
  Query.t ->
  string list ->
  (Incremental.state, Els_error.t) result
(** One prepare, the whole estimation state along the order: the final
    size and {!Incremental.history}. [Ok] means every intermediate size is
    finite and non-negative (a breach is reported at site
    ["Els.intermediate_sizes"]) and so is the final size (site
    ["Els.estimate"]), checked in that order. *)
