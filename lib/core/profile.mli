(** Estimation profiles: per-table effective statistics (steps 1–5 of
    Algorithm ELS).

    Building a profile performs, in order:

    + duplicate-predicate elimination and equivalence-class construction
      (step 1);
    + transitive closure when the configuration asks for it (step 2);
    + local-predicate selectivities, combining multiple predicates per
      column (step 3);
    + effective table cardinality [‖R‖′] and effective column cardinalities
      [d′] — the predicated column directly ([d×s], or 1 for an equality),
      every other column through the urn model (step 4, Section 5);
    + the single-table j-equivalent column treatment when configured
      (step 5, Section 6): for each table whose columns [c₁…cₙ] (n ≥ 2)
      share an equivalence class, [‖R‖′] is divided by the product of all
      but the smallest [d′] and the class is represented by a single
      effective join cardinality [⌈d₍₁₎·(1−(1−1/d₍₁₎)^‖R‖′)⌉]. Without that
      configuration, each intra-table column equality contributes the
      classic [1/max(d₁,d₂)] factor to [‖R‖′] instead.

    On top of those numbers the profile carries the indexes step 6 (see
    {!Incremental}) is compiled from: a canonical table → bit mapping,
    per-table join-predicate adjacency lists, per-predicate
    equivalence-class roots resolved once at build time, a per-predicate
    join-selectivity cache with hit/miss counters, and the lazily compiled
    estimation {!Kernel}. *)

type column_profile = {
  cref : Query.Cref.t;
  base_distinct : float;  (** d: catalog column cardinality *)
  local_distinct : float;
      (** d′ after local constant predicates and urn thinning *)
  join_distinct : float;
      (** cardinality to use in join selectivities; differs from
          [local_distinct] only under the Section 6 treatment *)
  d_source : string;
      (** which statistic shaped [local_distinct] — the derivation card's
          d′ provenance, e.g. ["equality(mcv)"], ["range(histogram)"],
          ["ne"], ["urn"], ["single-table(urn)"] — decided by the match
          that computes [local_distinct], from the source the local
          selectivity reported. Observation only: never read by the
          estimator. *)
  col_stats : Stats.Col_stats.t;
      (** the catalog statistics behind the numbers above (trivial when
          the catalog had none) — the CDF source for comparison-join
          selectivities *)
}

type table_profile = {
  name : string;  (** the query alias *)
  source : string;  (** the catalog table behind the alias *)
  base_rows : float;  (** ‖R‖ *)
  rows : float;  (** ‖R‖′: effective cardinality after local predicates *)
  local_selectivity : float;  (** rows / base_rows (0 when base is 0) *)
  columns : column_profile Query.Cref.Map.t;
}

type pred_info = {
  pred : Query.Predicate.t;
  id : int;  (** position in {!field-predicates}; the memo-cache key *)
  root : Query.Cref.t;
      (** equivalence-class root of the predicate's columns, resolved once
          at profile build *)
  endpoints : (int * int) option;
      (** the two table bits of a join predicate; [None] for locals *)
}

type cache_stats = {
  mutable sel_hits : int;  (** [sel_cache] probes answered from the cache *)
  mutable sel_misses : int;  (** [sel_cache] probes that computed *)
  mutable reference_steps : int;
      (** estimation steps replayed on the list-scan reference tier
          ({!Incremental.derive} and the [*_scan] functions) instead of
          the compiled kernel; 0 on every optimizer path *)
}

type index = {
  table_names : string array;  (** bit → normalized table name *)
  table_bits : (string, int) Hashtbl.t;  (** normalized name → bit *)
  profiles : table_profile array;  (** bit → table profile *)
  pred_infos : pred_info array;  (** predicate id → resolved info *)
  join_pred_ids : int array;  (** every join predicate id, ascending *)
  join_preds_by_table : int array array;
      (** bit → ids of the join predicates with that table as an endpoint,
          ascending (= working-conjunction order) *)
  local_preds_by_table : Query.Predicate.t list array;
      (** bit → single-table local predicates, in conjunction order *)
}

type t = {
  config : Config.t;
  predicates : Query.Predicate.t list;
      (** the working conjunction: closed iff [config.closure] *)
  classes : Eqclass.t;
  index : index;
  sel_cache : float array;
      (** predicate id → memoized join selectivity; NaN marks an unfilled
          slot (real selectivities live in [0, 1]) *)
  stats : cache_stats;
  guard : Guard.t;
      (** invariant guard for every number this profile produces; its mode
          is [config.strictness] *)
  validation : Catalog.Validate.issue list;
      (** catalog-statistics issues found (and, under [Repair], fixed)
          while building the profile; empty under [Strict] (the first
          issue raises) *)
  annotations : string list;
      (** staleness notes inherited from the catalog epoch this profile
          was prepared against; {!Incremental.derive} stamps them onto
          every derivation card *)
  mutable kernel : Kernel.t option;
      (** compiled estimation kernel, [None] until first use; access
          through {!kernel}, never the field (the accessor owns lazy
          compilation) *)
}

val normalize : string -> string
(** Canonical (lowercase) table-name normalization. Every name-keyed
    lookup in this module and {!Incremental} goes through it, so
    mixed-case callers cannot silently miss filters or predicates. *)

val build :
  ?trace:Obs.Trace.t ->
  ?annotations:string list ->
  Config.t ->
  Catalog.Db.t ->
  Query.t ->
  t
(** Catalog statistics of every referenced table are audited under
    [config.strictness] before use (see {!Catalog.Validate}).
    [trace] records a ["profile"] span with a ["validate"] child covering
    the catalog audit; tracing never changes any computed number.
    [annotations] (default empty) are staleness notes to stamp onto
    derivation cards; they never influence a computed number either.
    @raise Invalid_argument when a query table is missing from the catalog.
    @raise Els_error.Error ([Invalid_query]) on more than 62 tables (the
    bitset index limit).
    @raise Els_error.Error under [Strict] strictness when a referenced
    table carries corrupt statistics. *)

val build_result :
  ?trace:Obs.Trace.t ->
  ?annotations:string list ->
  Config.t ->
  Catalog.Db.t ->
  Query.t ->
  (t, Els_error.t) result
(** [build] with failures reified: corrupt statistics under [Strict]
    become [Error (Corrupt_stats _)], unknown tables and structural limits
    become [Error (Invalid_query _)]. Never raises. *)

val table : t -> string -> table_profile
(** @raise Not_found for tables outside the query. *)

val table_count : t -> int

val table_bit : t -> string -> int
(** Bit of the (normalized) table in the canonical table → bit mapping.
    @raise Not_found for tables outside the query. *)

val table_name : t -> int -> string
val table_at : t -> int -> table_profile

val pred_count : t -> int
val pred : t -> int -> pred_info

val scan_filters : t -> string -> Query.Predicate.t list
(** The single-table local predicates of the working conjunction pushed
    into the scan of the given table, via the per-table index.
    @raise Not_found for tables outside the query. *)

val join_card : t -> Query.Cref.t -> float
(** Column cardinality entering join-selectivity computation:
    [join_distinct] under a local-aware configuration, [base_distinct]
    under the standard algorithm. *)

val column_stats : t -> Query.Cref.t -> Stats.Col_stats.t
(** The catalog statistics of a predicate column (trivial statistics for
    columns the query never predicates on) — the CDF inputs of
    comparison-join selectivities. *)

val selectivity_of_cards : float -> float -> float
(** [min 1 (1 / max d1 d2)]; 0 when either side is 0 (a contradicted
    column joins nothing). Equation 2 of the paper. *)

val comparison_selectivity :
  t -> left:Query.Cref.t -> op:Query.Predicate.comparison ->
  right:Query.Cref.t ->
  float * (Stats.Selectivity_est.source * Stats.Selectivity_est.source) option
(** Raw (unguarded, uncached) selectivity of one column comparison:
    [Eq] is the paper's [1/max(d1, d2)] over effective cardinalities
    (their provenance is each column's [d_source], so no sources are
    returned); inequality and band operators go through the
    histogram-CDF convolution of {!Stats.Selectivity_est} — the rule-2d
    generalization — and return the statistics behind the [left]
    column's CDF and the [right] column's buckets. *)

val join_selectivity : t -> int -> float
(** Guarded selectivity of the join predicate with the given id, memoized
    in [sel_cache].
    @raise Invalid_argument for a local predicate id. *)

val estimator : t -> Estimator.t
(** The configuration's estimator. *)

val with_estimator : Estimator.t -> t -> t
(** Swap the estimator without rebuilding: the effective statistics,
    indexes and per-predicate selectivity cache are estimator-independent
    and shared; the compiled kernel bakes in the estimator, so the copy
    recompiles its own on first use. Note the pipeline toggles (closure,
    local-awareness, single-table) are baked into the built statistics
    and stay as configured. *)

val cache_stats : t -> cache_stats

val guard : t -> Guard.t
val guard_stats : t -> Guard.stats
(** Invariant violations / repairs / fallbacks observed so far by this
    profile's guard (catalog repairs count here too). *)

val validation_issues : t -> Catalog.Validate.issue list
(** Catalog issues found while building, in table order. *)

val kernel : t -> Kernel.t
(** The profile's compiled estimation kernel, compiling it on first call.
    Every estimator and every join predicate lowers: {!Incremental} runs
    every estimation step here, and every number it produces is
    bit-identical to the list-scan reference tier.
    @raise Els_error.Error under [Strict] strictness when a join
    selectivity breaches its guard during compilation. *)

val kernel_steps : t -> int
(** Estimation steps executed through the compiled kernel so far (0 when
    none is compiled) — published by {!Harness.Obs_report} as
    ["profile.kernel.steps"]. *)

val kernel_fallback_steps : t -> int
(** [cache_stats.reference_steps] — published by {!Harness.Obs_report} as
    ["profile.kernel.fallback_steps"]. *)
