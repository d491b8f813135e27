(** Supplementary figure F1: estimation error vs number of joins.

    The paper motivates consistent incremental estimation by the error
    blow-up of Rule M/SS on redundant (transitively closed) predicate sets;
    Ioannidis & Christodoulakis (cited as [4]) studied exactly this error
    propagation in single-equivalence-class queries. This experiment
    regenerates the figure on synthetic data: random chain queries of
    n = 2..max_tables tables whose join columns all fall into one
    equivalence class after closure; for each rule, the estimate along the
    FROM order is compared with the true (executed) size.

    The reported metric per (rule, n) is the geometric mean of
    [estimate / true] over the seeds — 1.0 means exact, values << 1 mean
    underestimation. *)

type point = {
  n_tables : int;
  rule : string;  (** the estimator's {!Els.Estimator.label} *)
  geo_mean_ratio : float;  (** geometric mean of estimate / true *)
  worst_ratio : float;  (** furthest from 1, by [|log(est/true)|] *)
}

val run :
  ?seeds:int list -> ?max_tables:int -> unit -> point list
(** One row per registered estimator ({!Els.Estimator.registry}) and table
    count, aggregated from one {!Panel.run} per table count. Every
    registered estimator's canonical configuration closes the predicate
    set (the study is about redundant predicate sets). Defaults: seeds
    [1..10], max_tables 7. Points are ordered by (n_tables, registry
    order). Trials whose true size is 0 are skipped. *)

val render : point list -> string
