(** Hash indexes over stored relations.

    The equality-lookup access path of this engine: a nested-loop join
    whose inner is accessed through an index touches only matching tuples
    instead of rescanning the table — the access-method choice Starburst's
    optimizer weighed alongside join methods. It is a {!Flat_table} keyed
    by one column, built once per run with one counting pass. *)

type t

val build : ?table:Flat_table.t -> Rel.Relation.t -> column:int -> t
(** Index the relation in [table] (a new one by default). NULL keys are
    not indexed (SQL equality never matches them). *)

val probe :
  t ->
  Rel.Value.t ->
  (Rel.Tuple.t -> Rel.Tuple.t -> unit) ->
  Rel.Tuple.t ->
  unit
(** {!Flat_table.probe} for the hash of a non-NULL [key]. *)

val lookup : t -> Rel.Value.t -> Rel.Tuple.t list
(** Tuples whose key equals the probe value, most recently inserted
    first; [[]] for NULL probes. *)

val key_count : t -> int
(** Number of distinct indexed keys. *)

val column : t -> int
(** The indexed column position. *)
