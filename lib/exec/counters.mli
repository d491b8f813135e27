(** Work counters.

    The paper reports elapsed seconds on 1994 hardware; we report wall
    clock too, but the primary, machine-independent measure of plan work is
    these counters: how many tuples the plan read from base relations, how
    many predicate/key comparisons it made, and how many rows each operator
    emitted. A plan that is 10× worse does 10× the work whatever the
    hardware.

    The counters also carry the run's row budget, if any: {!read} and
    {!output} charge their counter and spend as many budgeted rows in one
    call, so the budget's {!Rel.Budget.rows_used} equals
    [tuples_read + tuples_output] by construction, at a trip as at the
    end. *)

type t = private {
  mutable tuples_read : int;
      (** tuples pulled out of base-table scans (inner rescans count) *)
  mutable comparisons : int;
      (** predicate evaluations and join-key comparisons *)
  mutable tuples_output : int;  (** rows emitted by join operators *)
  budget : Rel.Budget.t option;  (** spent by {!read} and {!output} *)
}

val create : ?budget:Rel.Budget.t -> unit -> t

val read : t -> int -> unit
(** Charge [n] tuples read, then spend [n] budgeted rows.
    @raise Rel.Budget.Exhausted when that spend trips the budget (the
    counter already includes the [n] tuples). *)

val compared : t -> int -> unit

val output : t -> int -> unit
(** Charge [n] rows emitted, then spend [n] budgeted rows, as {!read}. *)

val total_work : t -> int
(** [tuples_read + comparisons + tuples_output] — the scalar used to rank
    executed plans. *)

val pp : Format.formatter -> t -> unit
