(** The output step every join shares. *)

val joiner :
  Counters.t ->
  Rel.Schema.t ->
  Query.Predicate.t list ->
  (Rel.Tuple.t -> unit) ->
  Rel.Tuple.t ->
  Rel.Tuple.t ->
  unit
(** [joiner counters schema residual] compiles [residual] against the
    join's output [schema] and returns [emit]. [emit k left right]
    concatenates the candidate pair, charges one comparison per residual
    predicate and, when all of them hold, counts one output row (spending
    the counters' budget) and passes the joined tuple to [k]. *)
