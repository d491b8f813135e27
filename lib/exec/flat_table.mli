(** The build side of hash and index joins, flat.

    A table holds its build rows and, after {!seal}, their row ids grouped
    by hash bucket in int arrays: bucket starts, row ids and each slot's
    full hash, laid out by one counting pass. Each bucket lists its rows in
    arrival order and {!probe} walks it from its end, without allocating,
    so rows sharing a hash come out most recently added first. A run
    takes its tables from a {!pool} that its domain keeps between runs, so
    a steady workload builds into the same arrays every time. *)

type t

val create : unit -> t

val add : t -> Rel.Tuple.t -> int -> unit
(** [add t row hash] appends a build row; rows with a NULL key are simply
    never added. *)

val seal : t -> unit
(** Group the rows by bucket; once, after the last {!add}. *)

val probe :
  t -> int -> (Rel.Tuple.t -> Rel.Tuple.t -> unit) -> Rel.Tuple.t -> unit
(** [probe t hash f left] calls [f left row] for each build row whose full
    hash is [hash], most recently added first; [f] compares the keys. *)

type pool

val pool : unit -> pool
(** An empty pool, whose tables the collector frees with it. *)

val take : pool -> rows:int -> t
(** An empty table from the pool, or a new one, with room for [rows] build
    rows before it grows (a build that knows its size fills arrays of
    that size instead of doubling up to it). *)

val take_pool : unit -> pool
(** The tables this domain's last run gave back; none when another run on
    the domain holds them or the last run raised. *)

val give_back : pool -> unit
(** Empty every table, so none keeps a tuple alive, and keep them for the
    domain's next run while their capacities sum to at most 2{^18} rows. *)
