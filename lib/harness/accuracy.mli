(** Supplementary figure F6: q-error study.

    The q-error of an estimate ({!Panel.q_error}) summarizes how far each
    algorithm's final join-size estimate lands from the true size over a
    mixed workload of random chain and star queries, with and without
    local predicates. The study aggregates {!Panel.run}'s rows. Reported
    per algorithm: median, 90th percentile and maximum q-error, plus the
    underestimation share. *)

type summary = {
  algorithm : string;  (** {!Els.Config.name} of the canonical configuration *)
  queries : int;  (** queries with a finite q-error *)
  median_q : float;
  p90_q : float;
  max_q : float;
  underestimated : float;
      (** fraction of defined (non-[Undefined]) queries with est < true *)
  infinite : int;  (** queries whose q-error was [Infinite] *)
  undefined : int;  (** queries skipped as [Undefined] *)
}
(** Percentiles are computed over the finite q-errors only; the skipped
    cases are counted, not folded into the statistics. *)

val run : ?seeds:int list -> unit -> summary list
(** One summary per registered estimator, in registry order. Each seed
    contributes one chain (4 tables, with a local predicate) and one star
    (3 dimensions) query. Defaults: seeds [1..8]. *)

val render : summary list -> string
