(** Push-based physical operators.

    An operator is a producer of tuples of a fixed schema: {!iter} runs
    it, handing each tuple to a consumer as it is produced. A scan is a
    loop over a relation and a join a loop over its inputs, so a plan runs
    depth-first with no cursor state between rows. Work an operator does
    when it is built — a hash join's build side, a sort-merge join's
    sorted inputs, an index — happens once, at construction. Running an
    operator twice redoes its per-row work and charges it to the work
    counters again: this is how {!Nested_loop.join} rescans its inner for
    every outer tuple. A budget trip raises {!Rel.Budget.Exhausted} out of
    the charging {!Counters} call and ends the run. *)

type t

val make : Rel.Schema.t -> ((Rel.Tuple.t -> unit) -> unit) -> t
(** [make schema produce]: running the operator calls [produce k], which
    must call [k] once per tuple, in order. *)

val join :
  Rel.Schema.t -> ((Rel.Tuple.t -> Rel.Tuple.t -> unit) -> unit) -> t
(** A join, whose [produce] hands each output row on as the (left, right)
    pair it joins: {!iter} concatenates it, {!count} does not. *)

val schema : t -> Rel.Schema.t

val iter : (Rel.Tuple.t -> unit) -> t -> unit
(** Run the operator, passing each tuple to the consumer. *)

val of_list : Rel.Schema.t -> Rel.Tuple.t list -> t
val of_relation : Rel.Relation.t -> t
(** Plain producer over a relation; does not touch any counter (use
    {!Scan.relation} for counted base-table scans). *)

val to_relation : t -> Rel.Relation.t
(** Run the operator into a fresh relation. *)

val count : t -> int
(** Run and count. *)

val fold : ('acc -> Rel.Tuple.t -> 'acc) -> 'acc -> t -> 'acc
