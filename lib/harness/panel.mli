(** Estimate-vs-truth panels: experiments F10, F14 and F16.

    The paper's evaluation (Section 8) compares estimated against executed
    join sizes. A panel does that for a list of scenarios crossed with
    {e every} estimator in the core registry ({!Els.Estimator.registry}),
    each under its canonical configuration ({!Els.Config.of_estimator}):
    the size after each join of the query's FROM order, the executed true
    size and the q-error of the final estimate. A newly registered
    estimator shows up in every panel without a harness change.

    The three experiments differ only in their scenario lists:
    - {!f10}: the paper's Section 8 workload;
    - {!f14}: inequality and band joins (histogram-CDF convolution
      against the generalized sort-merge's truth);
    - {!f16}: the degree-statistics family on a key-join chain, a
      Zipf-skewed star and Section 8.

    Every scenario has a positive executed truth by construction, so a
    sound estimator yields a finite q-error on every row — {!pass}. *)

type scenario = { name : string; db : Catalog.Db.t; query : Query.t }

type row = {
  scenario : string;  (** the scenario's [name] *)
  predicate : string;  (** the query's join predicates, rendered *)
  estimator : string;  (** {!Els.Estimator.label} *)
  sizes : float list;  (** size after each join of the FROM order *)
  estimate : float;  (** final join-size estimate *)
  truth : float;  (** executed true size *)
  q : Accuracy.q_error;  (** of the final estimate *)
}

val f10 : scale:int -> seed:int -> scenario list
(** The Section 8 catalog at [scale] (see {!Datagen.Section8.build}). *)

val f14 : seed:int -> scenario list
(** ["lt"], ["ge"], ["band"] (|a − b| ≤ 2.5) and ["mixed"] (an equality
    then a [<] link); each derives its own sub-seed. *)

val f16 : scale:int -> seed:int -> scenario list
(** ["key-chain"], ["skew-star"] and ["section8"] at [scale]; each
    derives its own sub-seed. *)

val run : scenario list -> row list
(** One row per (scenario, registry estimator), scenario-major. *)

val pass : row list -> bool
(** True when the panel is non-empty and every q-error is finite. *)

val render : row list -> string
(** Columns: Scenario, Join Predicate, Estimator, Estimated Sizes, True,
    q-error. *)
