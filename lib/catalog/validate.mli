(** Catalog statistics validation and repair.

    Catalog numbers arrive from outside the estimator (ANALYZE runs, hand
    curation, test fixtures) and can be arbitrarily wrong: negative
    cardinalities, distinct counts exceeding the row count, NaN histogram
    buckets, MCV fractions summing past 1, row counts stale after the data
    was regenerated. ELS's formulas silently amplify such garbage, so the
    pipeline audits statistics up front and degrades to the Section 5
    ball/urn model (drop the offending sketch, clamp the count) rather
    than propagating impossible numbers.

    How an audit finding is acted on is governed by the {!strictness}
    mode; the mode itself is re-exported as [Els.Config.strictness] so
    core code never depends on this module's position in the stack. *)

type strictness =
  | Strict   (** first issue aborts preparation with a structured error *)
  | Repair   (** clamp / drop the offending statistic, count the repair *)
  | Trap     (** observe only: report issues, use the statistics as-is *)

val strictness_name : strictness -> string
val strictness_of_string : string -> strictness option

type kind =
  | Negative_rows
  | Stale_row_count        (** catalog ‖R‖ disagrees with stored data *)
  | Negative_distinct
  | Distinct_exceeds_rows  (** d > ‖R‖ *)
  | Distinct_drift         (** recorded d far from the distinct sketch's
                               independent estimate *)
  | Negative_nulls
  | Invalid_bounds         (** min > max, or a NaN bound *)
  | Nan_histogram          (** NaN / negative bucket statistics *)
  | Non_monotone_histogram
  | Excess_buckets         (** more buckets than {!Stats.Histogram.build}
                               was asked for *)
  | Invalid_mcv            (** fraction outside [0,1] or sum > 1 *)
  | Invalid_degree         (** degree norms NaN/negative or inconsistent:
                               L∞ > L1, L2² > L1·L∞, or tracked top-k
                               degrees non-descending / above L∞ *)

val kind_name : kind -> string

type issue = {
  table : string;
  column : string option;  (** [None] for table-level issues *)
  kind : kind;
  detail : string;         (** what was found *)
  repair : string;         (** what Repair mode does about it *)
}

val issue_to_string : issue -> string

val check_table : Table.t -> issue list
(** Audit one table without modifying it. *)

val repair_table : Table.t -> Table.t * issue list
(** Audit one table, returning a repaired copy plus everything found.
    Repairs: stale/negative row counts are replaced by the stored
    cardinality / clamped at 0, distinct and null counts are clamped into
    [[0, rows]], and invalid bounds/histograms/MCV sketches/degree
    sequences are dropped (estimation then falls back to the uniform/urn
    model; degree-capped estimators fall back to min-rows). *)

val validate : strictness -> Db.t -> (Db.t * issue list, issue) result
(** Audit a catalog under a strictness mode. [Strict] returns the first
    issue as [Error]; [Repair] returns a repaired catalog plus all issues
    (each one a counted repair); [Trap] returns the catalog unchanged
    plus all issues. *)
