(** Versioned catalog store: the lifecycle around {!Epoch} snapshots.

    The store owns the live (mutating) relations and publishes immutable
    statistics epochs over them. Readers {!pin} the current epoch and
    estimate against it; writers stream {!insert}/{!delete} batches into a
    staging area, {!reanalyze} tables in bulk or by partitions, and
    {!publish} to atomically swap in the next epoch.

    {2 Concurrency}

    Every operation is safe from any thread or domain, and callers take
    no lock. {!pin} is one atomic read and never waits. Every operation
    that reads or writes the live relations, the staging area or the
    counters ({!insert}, {!delete}, {!live}, {!live_db}, {!snapshot},
    {!stage}, {!corrupt_staged}, {!publish}, {!drift}, {!stats}) holds
    the store's private lock for its own duration only. Relations only
    grow, so a copy can share the row array ({!Rel.Relation.copy}):
    {!live}, {!live_db} and {!snapshot} hand out O(1) copies that a
    caller reads with no lock while writers go on. {!analyze}
    reads only a snapshot and takes no lock, so a {!reanalyze} holds the
    lock to copy the rows and to stage the result, never while it
    scans.

    Every publish audits each table's candidate statistics with
    {!Validate.check_table} and climbs a self-healing ladder:

    + clean candidate → served, remembered as last-known-good;
    + audit failure with a last-known-good epoch → the table is
      {e quarantined}: stale-but-sane statistics are served (counted, and
      annotated on the epoch so explain cards can surface the staleness),
      and re-audits back off exponentially until a fresh re-ANALYZE
      arrives;
    + audit failure with no good epoch → hard fallback to the store's
      strictness: [Strict] refuses the publish (no epoch mutates),
      [Repair] serves the repaired statistics, [Trap] serves the
      candidate as-is — both annotated.

    Per-table drift gauges (rows touched since the last ANALYZE, relative
    distance between the recorded distinct count and the sketch estimate)
    are exposed via {!drift} for the observability layer. *)

type t

type drift = {
  rows_since_analyze : int;  (** inserts + deletes since last re-ANALYZE *)
  d_drift : float;
      (** max over columns of |sketch estimate − recorded d| / max(1, d) *)
}

type counters = {
  epoch : int;                (** current epoch id *)
  publishes : int;            (** successful epoch swaps *)
  audits_failed : int;        (** candidates that failed a publish audit *)
  quarantines : int;          (** transitions into quarantine *)
  quarantined_now : int;      (** tables currently quarantined *)
  stale_served : int;         (** publishes that served last-known-good *)
  retries : int;              (** re-audits of a quarantined table *)
  retry_successes : int;      (** quarantine exits via a clean candidate *)
  hard_fallbacks : int;       (** audit failures with no good epoch *)
  delta_inserts : int;        (** rows streamed in since [create] *)
  delta_deletes : int;        (** rows streamed out since [create] *)
}

val create :
  ?strictness:Validate.strictness ->
  ?histogram:Stats.Histogram.kind ->
  ?histogram_buckets:int ->
  ?mcv:int ->
  Db.t ->
  t
(** Wrap a catalog of stored tables. Existing statistics are adopted
    verbatim into epoch 0 (tables whose statistics already fail audit
    simply start with no last-known-good epoch); the analyze options are
    remembered for every later {!reanalyze}. [strictness] (default
    [Repair]) governs the hard-fallback rung only. Each table's live
    relation starts as a copy of the catalog's, so the store's later
    inserts and deletes never reach the catalog passed in.
    @raise Invalid_argument when a table is stats-only: the store must own
    live data to stream deltas and re-ANALYZE. *)

val strictness : t -> Validate.strictness

val pin : t -> Epoch.t
(** The current epoch: an atomic read, so it needs no lock even while a
    writer publishes. Immutable: estimates prepared against it are
    bit-identical before and after any number of subsequent publishes. *)

val live : t -> table:string -> Rel.Relation.t
(** A copy of the live relation (ground truth including all streamed
    deltas), what a fresh bulk ANALYZE would scan. O(1), taken under the
    lock; neither the store nor the copy sees the other's later
    writes.
    @raise Invalid_argument on an unknown table. *)

val live_db : t -> tables:string list -> Db.t
(** A catalog of the named tables (duplicates collapse), each stored
    over a copy of its live relation with its published statistics, all
    copied under one hold of the lock: what an execution reads, with no
    lock held while it runs.
    @raise Invalid_argument on an unknown table. *)

val insert : t -> table:string -> Rel.Value.t list list -> unit
(** Stream a batch of rows in: the live relation grows, and the staged
    statistics are delta-adjusted — ‖R‖ and null counts exactly, the
    distinct sketch and histogram bucket counts incrementally, bounds
    widened. The recorded distinct count is deliberately left stale (that
    gap {e is} the d-drift the gauges expose). Not visible to readers
    until {!publish}. *)

val delete : t -> table:string -> indices:int list -> unit
(** Stream a batch of rows out, by current row index (negative and
    out-of-range indices are ignored, a repeated index deletes once), in
    one pass over the live relation. ‖R‖ and null counts adjust exactly; histogram
    bucket counts decrement; sketches and bounds cannot shrink and keep
    over-remembering until the next {!reanalyze}. *)

val reanalyze : ?shards:int -> t -> table:string -> unit
(** Recompute the table's statistics from the live relation and stage
    them for the next publish. [shards > 1] exercises the parallel-ANALYZE
    path: the relation is partitioned round-robin, each shard analyzed
    independently, and the results merged ({!Analyze.partitions}). Resets
    the table's drift counters. It is exactly
    [stage t (analyze ?shards t (snapshot t ~table))]: the lock is held
    for the snapshot and for the stage, not for the analysis. *)

type snapshot
(** A table's rows at one moment, blind to later writes. *)

val snapshot : t -> table:string -> snapshot
(** Phase 1 of {!reanalyze}: an O(1) copy of the live relation
    ({!Rel.Relation.copy}) and the table's version, under the lock.
    @raise Invalid_argument on an unknown table. *)

type analysis
(** A snapshot's statistics, not yet staged. *)

val analyze : ?shards:int -> t -> snapshot -> analysis
(** Phase 2 of {!reanalyze}: ANALYZE the snapshot, in bulk or by
    [shards] partitions as {!reanalyze} does. Reads only the snapshot and
    the store's analyze options, which never change, so it needs no
    lock. *)

val stage : t -> analysis -> unit
(** Phase 3 of {!reanalyze}: stage the statistics for the next publish
    and reset the table's drift counters. When an {!insert} or
    {!delete} reached the table after its {!snapshot}, the analysis
    describes rows that are gone, so the live relation is analyzed again
    here instead, under the lock: nothing streamed in between is lost. *)

val corrupt_staged : t -> table:string -> (Table.t -> Table.t) -> unit
(** Test hook: transform the staged statistics (initialized from the
    published ones when nothing is staged) so publish-time audits have
    something to catch. [f] runs under the store's lock, so it must not
    call the store. *)

val publish : t -> (Epoch.t, Validate.issue) result
(** Audit every table's candidate statistics and atomically swap in the
    next epoch (strictly increasing id); a concurrent {!pin} sees the
    old epoch or the new one, never a mix. [Error] only on the Strict hard
    fallback — a table failed audit with no last-known-good epoch under
    [Strict] — in which case {e nothing} changes: the previous epoch stays
    current and no staged state is consumed. *)

val drift : t -> (string * drift) list
(** Per-table drift gauges, in registration order, measured on the
    currently published statistics. *)

val stats : t -> counters

val pp : Format.formatter -> t -> unit
