(** HyperLogLog-style distinct-count sketches.

    A mergeable summary of a column's distinct non-null values: shards of
    a table can be analyzed independently and their sketches combined by
    a register-wise maximum, which is {e exactly} commutative, associative
    and idempotent — the algebraic property the partitioned-ANALYZE path
    and the epoch merge machinery rely on. Standard error is roughly
    [1.04/sqrt(2^p)] (about 1.6% at the default precision).

    Sketches are immutable values: [add_values] and [merge] return fresh
    sketches and never mutate their inputs, so a sketch frozen into a
    catalog epoch cannot be changed behind a pinned reader's back. The
    distinct estimate is therefore computed once, when a sketch's
    registers become final: every constructor pays one pass over the
    [2^p] registers, and {!estimate} is a field read. Building a sketch
    allocates nothing per value.

    Deletions cannot be subtracted from a sketch — after deletes the
    sketch over-remembers, which is exactly the "d-drift" the catalog
    store's gauges and {!Catalog.Validate}'s drift audit measure. *)

type t

val create : ?p:int -> unit -> t
(** Empty sketch with [2^p] registers. [p], the precision, defaults to
    12: 4096 one-byte registers.
    @raise Invalid_argument when [p] is outside [[4, 16]]. *)

val precision : t -> int

val of_values : ?p:int -> Rel.Value.t array -> t
(** Sketch of the non-null values of a column (nulls are skipped, matching
    the distinct-count convention of {!Col_stats}). *)

val add_values : t -> Rel.Value.t array -> t
(** Fresh sketch with the non-null values added; the input is untouched. *)

val merge : t -> t -> t
(** Register-wise maximum. Exactly commutative and associative; merging a
    sketch with itself is the identity.
    @raise Invalid_argument when the precisions differ. *)

val estimate : t -> float
(** Estimated distinct count: the classic bias-corrected harmonic mean
    with linear counting in the small range. Deterministic; an empty
    sketch estimates 0. O(1) at any precision: the value was computed
    when the sketch was built, so it is safe to read from any domain. *)

val equal : t -> t -> bool
(** Register-level equality (same precision, same registers). *)

val pp : Format.formatter -> t -> unit
