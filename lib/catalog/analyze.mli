(** Statistics collection (the [ANALYZE] of this engine).

    Scans a stored relation and produces the exact table cardinality and
    per-column statistics (distinct counts, bounds, optional histograms)
    that the estimation algorithms consume. *)

val table :
  ?histogram:Stats.Histogram.kind ->
  ?histogram_buckets:int ->
  ?mcv:int ->
  name:string ->
  Rel.Relation.t ->
  Table.t
(** [table ~name r] analyzes every column of [r]. When [histogram] is given,
    numeric columns additionally get a distribution histogram; when [mcv]
    is given, every column gets a most-common-value sketch of that many
    entries. *)

val register :
  ?histogram:Stats.Histogram.kind ->
  ?histogram_buckets:int ->
  ?mcv:int ->
  Db.t ->
  name:string ->
  Rel.Relation.t ->
  Table.t
(** Analyze and add to the catalog in one step; returns the table entry. *)

val merge_tables : Table.t -> Table.t -> Table.t
(** Combine the statistics of two disjoint shards of one table into a
    stats-only entry: row counts add, per-column statistics merge per the
    {!Stats.Col_stats.merge} algebra.
    @raise Invalid_argument when names or schemas disagree. *)

val partitions :
  ?histogram:Stats.Histogram.kind ->
  ?histogram_buckets:int ->
  ?mcv:int ->
  name:string ->
  Rel.Relation.t list ->
  Table.t
(** Parallel-ANALYZE entry point: analyze each partition of a table
    independently and fold the shard statistics with {!merge_tables}. The
    result is stats-only (a merged entry carries no single stored
    relation) and matches bulk {!table} output within the merge algebra's
    tolerance: row counts, null counts and bounds exactly; distinct counts
    to sketch accuracy; histogram/MCV shapes approximately.
    @raise Invalid_argument on an empty shard list. *)
