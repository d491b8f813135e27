(** Top-level query optimizer.

    Pairs an estimation algorithm (an {!Els.Config.t}) with the Selinger
    enumerator and returns the chosen plan together with the estimates that
    drove the choice — the tuple of facts reported in each row of the
    paper's Section 8 table. *)

module Cost = Cost
module Dp = Dp
module Greedy = Greedy
module Random_walk = Random_walk
module Provenance = Provenance

type choice = {
  algorithm : string;  (** display name of the estimation configuration *)
  plan : Exec.Plan.t;
  join_order : string list;
  intermediate_estimates : float list;
      (** estimated size after each join of the chosen order *)
  estimated_cost : float;  (** in executor work units *)
  profile : Els.Profile.t;
      (** the estimation profile that drove enumeration; its
          {!Els.Profile.kernel_steps} count the estimation steps
          optimization ran *)
  provenance : Provenance.t;
      (** which anytime rung produced the plan, whether the budget tripped,
          and how many node expansions ran *)
}

type enumerator =
  | Exhaustive  (** Selinger dynamic programming (default) *)
  | Greedy_order  (** O(n²) greedy construction *)
  | Randomized of int  (** iterative improvement with the given seed *)

val enumerator_name : enumerator -> string
(** ["dp"], ["greedy"] or ["random"]: the enumerator's name on the CLI
    [--enumerator] flag and in the serve protocol. *)

val enumerator_of_string : string -> (enumerator, string) result
(** Case-insensitive inverse of {!enumerator_name} (["random"] is
    [Randomized 1]); an unknown name yields a one-line message listing the
    names with a did-you-mean suggestion ({!Catalog.Suggest}). *)

val choose :
  ?methods:Exec.Plan.join_method list ->
  ?enumerator:enumerator ->
  ?estimator:Els.Estimator.t ->
  ?budget:Rel.Budget.t ->
  ?trace:Obs.Trace.t ->
  Els.Config.t ->
  Catalog.Db.t ->
  Query.t ->
  choice
(** Optimize the query under the given estimation algorithm. [estimator]
    swaps the configuration's combining rule before profiling (the other
    pipeline toggles stay as configured), so [algorithm] reflects it. The
    plan's scans carry the local predicates of the estimator's working
    conjunction (so a closure-enabled configuration both estimates with and
    executes the implied predicates, like the paper's PTC rewrite).

    [budget] bounds the enumeration; on exhaustion the chosen enumerator
    degrades anytime-style instead of failing (see {!Dp}) and [provenance]
    records which rung answered. Never raises
    [Els_error.Budget_exhausted] — only execution does.

    [trace] records the "profile"/"validate" spans of the build plus an
    "optimize" span (with rung and expansion-count attributes) around
    enumeration; tracing never changes the chosen plan or any estimate. *)

val explain : Format.formatter -> choice -> unit
(** Human-readable plan summary with per-join estimates. *)
