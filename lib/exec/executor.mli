(** Plan execution.

    Turns a physical {!Plan.t} into an operator tree over the catalog's
    stored relations and runs it, reporting both the result and the work
    performed — the stand-in for the paper's Starburst runtime. *)

type result = {
  relation : Rel.Relation.t;
  row_count : int;
  counters : Counters.t;
  elapsed_s : float;  (** wall-clock seconds for the whole execution *)
}

val run : ?budget:Rel.Budget.t -> Catalog.Db.t -> Plan.t -> result
(** Execute a plan. Every base table mentioned must be stored (not
    stats-only). A [budget] goes to the run's {!Counters}, which spend one
    budgeted row per tuple read or output and so also probe its deadline;
    execution cannot degrade the way enumeration can, so a trip cancels
    the run.
    @raise Els.Els_error.Error ([Budget_exhausted]) when the budget trips
    mid-execution; the raw {!Rel.Budget.Exhausted} never escapes.
    @raise Invalid_argument when a table is stats-only.
    @raise Not_found when a table is missing from the catalog. *)

val count :
  ?budget:Rel.Budget.t -> Catalog.Db.t -> Plan.t -> int * Counters.t * float
(** Execute without materializing the result — [COUNT( )] style, so the
    root join's output tuples are never built; returns (rows, counters,
    elapsed seconds). Budget semantics as in {!run}. *)

val count_result :
  ?budget:Rel.Budget.t ->
  Catalog.Db.t ->
  Plan.t ->
  (int, Els.Els_error.t) Stdlib.result * Counters.t * float
(** [count] in the [Result] style: a budget trip yields
    [Error (Budget_exhausted _)] instead of raising, and the counters and
    elapsed time of the cancelled run are still returned — by
    construction the budget's {!Rel.Budget.rows_used} equals
    [tuples_read + tuples_output] at the moment of cancellation, so
    partial work is fully accounted. Errors other than the budget trip
    (missing table, stats-only table) still raise as in {!run}. *)

val run_query : ?budget:Rel.Budget.t -> Catalog.Db.t -> Query.t -> result
(** Reference execution of a query with no optimizer involved: left-deep
    hash joins in FROM order (nested loops when a step has no equi-key),
    local predicates pushed to scans, column projections applied. Used to
    obtain ground-truth result sizes in tests and experiments. Budget
    semantics as in {!run}. *)
