(** Splitting join conjunctions into equi-key pairs and residual
    predicates. *)

val split :
  left:Rel.Schema.t ->
  right:Rel.Schema.t ->
  Query.Predicate.t list ->
  (int * int) list * Query.Predicate.t list
(** [split ~left ~right preds] returns the list of [(left_pos, right_pos)]
    column-position pairs for the column equalities that bridge the two
    schemas, and the remaining predicates, to be evaluated on the
    concatenated schema after the join.
    @raise Invalid_argument when a predicate references a column present in
    neither schema. *)

val comparison_driver :
  left:Rel.Schema.t ->
  right:Rel.Schema.t ->
  Query.Predicate.t list ->
  (Query.Predicate.t * int * int * Query.Predicate.comparison) option
(** The first comparison (non-equality) predicate bridging the two
    schemas, as [(pred, left_pos, right_pos, op)] with [op] oriented
    left-versus-right (mirrored when the predicate was spelled the other
    way round) — the sort driver of a comparison sort-merge join. *)

val has_null : int list -> Rel.Tuple.t -> bool
(** Whether any of the key columns holds NULL — such a tuple never
    matches under SQL equality. *)

val match_at : (int * int) list -> Rel.Tuple.t -> Rel.Tuple.t -> bool
(** Whether [left.(i)] and [right.(j)] are SQL-equal for each [(i, j)]. *)
