(** Optimize-and-execute runner: one experiment trial.

    Given a stored catalog, a query and an estimation algorithm, choose a
    plan, execute it, and report everything a Section 8-style table row
    needs: the chosen join order, the optimizer's intermediate size
    estimates, the true intermediate sizes, and the measured execution
    work/time. *)

type trial = {
  algorithm : string;
  join_order : string list;
  estimates : float list;  (** estimated size after each join *)
  true_sizes : float list;
      (** true size after each join of the chosen order, with all implied
          predicates available (the paper's "correct answer") *)
  result_rows : int;
  work : int;  (** executor work units actually performed *)
  elapsed_s : float;
  estimated_cost : float;
  plan : Exec.Plan.t;
  provenance : Optimizer.Provenance.t;
      (** which anytime rung of the enumerator produced the plan *)
}

val true_prefix_sizes :
  Catalog.Db.t -> Query.t -> string list -> float list
(** Ground truth: for each prefix of the join order (length ≥ 2), count
    the rows of the subquery over the prefix tables with the {e closed}
    predicate set restricted to those tables
    ({!Exec.Executor.count_query}). *)

val run :
  ?methods:Exec.Plan.join_method list ->
  ?budget:Rel.Budget.t ->
  ?trace:Obs.Trace.t ->
  Els.Config.t ->
  Catalog.Db.t ->
  Query.t ->
  trial
(** [budget] is shared across the whole trial: node expansions are spent
    during optimization (which degrades anytime-style on exhaustion) and
    rows during execution (which cancels with a structured
    [Budget_exhausted] error on exhaustion). [trace] records the
    optimizer's "profile"/"validate"/"optimize" spans plus an "execute"
    span with row/work attributes.
    @raise Invalid_argument when the catalog tables are stats-only.
    @raise Els.Els_error.Error ([Budget_exhausted]) when the row budget or
    deadline trips during execution. *)
