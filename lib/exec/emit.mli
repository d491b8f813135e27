(** The output step every join shares. *)

val joiner :
  Counters.t ->
  left:Rel.Schema.t ->
  right:Rel.Schema.t ->
  Query.Predicate.t list ->
  (Rel.Tuple.t -> Rel.Tuple.t -> unit) ->
  Rel.Tuple.t ->
  Rel.Tuple.t ->
  unit
(** [joiner counters ~left ~right residual] compiles [residual] against
    the join's output schema, [left] then [right], and returns [emit].
    [emit k l r] charges one comparison per residual predicate, evaluates
    them on the candidate pair without concatenating it and, when all of
    them hold, counts one output row (spending the counters' budget) and
    passes the pair to [k]. *)
