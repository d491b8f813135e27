(** Per-step estimate provenance: which rule and which statistic produced
    each number of an incremental join-size derivation.

    The paper derives every effective cardinality [d′] and every step size
    [S_J] from explicit rules (Sections 5–8); this module records that
    derivation as data so `elsdb explain` can print it as a card and the
    harnesses can emit it as JSON. The recorder is fed by
    [Els.Incremental] when a sink is attached to the profile; recording is
    observation-only — attach or detach a sink and the estimates stay
    bit-identical.

    The vocabulary is deliberately flat (strings and floats): this module
    sits below the relational stack and must not depend on it. *)

type column_record = {
  column : string;  (** "table.column" *)
  base_distinct : float;  (** d: catalog cardinality *)
  join_distinct : float;  (** d′ entering the join selectivity *)
  source : string;
      (** where d′ came from: ["base"], ["urn"], ["equality(mcv)"],
          ["range(histogram)"], ["single-table(...)"], ... *)
}

type class_record = {
  class_root : string;  (** equivalence-class representative column *)
  kind : string;
      (** predicate kind of the group: ["eq"] (class of equality
          predicates), ["ineq"] or ["band"] (singleton comparison
          predicate) *)
  rule : string;  (** estimator id that combined the class (m/ss/ls/pess) *)
  inputs : (string * float) list;
      (** eligible predicate text → its raw join selectivity, in
          conjunction order *)
  combined : float;  (** the class selectivity the rule produced *)
  columns : column_record list;  (** d′ provenance of the member columns *)
}

type step = {
  index : int;  (** 0-based position in the derivation *)
  table : string;  (** table joined in, or ["⋈"] for a bushy merge *)
  left_rows : float;
  right_rows : float;
  classes : class_record list;  (** in first-occurrence order *)
  cap : float option;
      (** the estimator's step bound, when one applied (bridged step under
          a capping estimator) *)
  cap_source : string option;
      (** provenance of the cap: the label the cap returned with its
          bound, naming the term that bound the step (e.g. a degree norm
          from ANALYZE, or min-rows). Ignored by {!replay}. *)
  output : float;  (** the step's final (guarded) size *)
}

type t
(** A mutable derivation sink. *)

val create : unit -> t

val set_base : t -> string -> float -> unit
(** Record a starting table and its effective cardinality [‖R‖′]. *)

val record_step : t -> step -> unit

val annotate : t -> string -> unit
(** Attach a free-form staleness/context note to the card (e.g. "table x:
    serving last-known-good statistics"). Notes render ahead of the base
    rows in {!pp_card} and under ["annotations"] in {!to_json};
    observation-only, like everything here. *)

val base : t -> (string * float) list
(** Starting tables in recording order. *)

val annotations : t -> string list
(** Notes in recording order. *)

val steps : t -> step list
(** Recorded steps in recording order. *)

val replay : combine:(rule:string -> float list -> float) -> t -> float list
(** Recompute each step's output from its recorded parts, mirroring the
    incremental pipeline under Repair-mode clamping: per class,
    [combine ~rule inputs] clamped to [[0, 1]]; the step size is
    [left · right · Πclasses], capped when [cap] is set, then clamped to
    [[0, left·right]] (NaN repairs to 0). With [combine] dispatching to
    the registered estimators, the result is bit-identical to the
    recorded [output]s — the replay property the tests pin down. *)

val pp_card : Format.formatter -> t -> unit
(** Render the derivation as a human-readable card: one block per step
    with the equivalence classes, the rule that fired, each input
    selectivity, the d′ sources, the cap and the output size. *)

val to_json : t -> Json.t
