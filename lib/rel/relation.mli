(** In-memory relations.

    A relation is a schema plus a bag (multiset) of tuples. This is the
    storage substrate standing in for the paper's Starburst tables: big
    enough to run the Section 8 experiment for real, simple enough to audit.

    Mutation is append-only; all analytical operations are pure. *)

type t

val create : Schema.t -> t

val schema : t -> Schema.t
val cardinality : t -> int

val insert : t -> Tuple.t -> unit
(** @raise Invalid_argument when the tuple does not conform to the schema
    (wrong arity or a value of the wrong type). *)

val insert_values : t -> Value.t list -> unit

val get : t -> int -> Tuple.t
(** Tuples are addressable by insertion index; used by scans. *)

val iter : (Tuple.t -> unit) -> t -> unit
val fold : ('acc -> Tuple.t -> 'acc) -> 'acc -> t -> 'acc
val to_list : t -> Tuple.t list

val of_tuples : Schema.t -> Tuple.t list -> t

val copy : t -> t
(** The same rows under the same schema, in a row array of its own:
    later inserts into either relation are not seen by the other. Shares
    the tuples and re-checks none of them, so it costs one array copy. *)

val distinct_count : t -> int -> int
(** [distinct_count r col] is the exact number of distinct non-null values
    in column position [col]. *)

val column_values : t -> int -> Value.t array
(** All values (including duplicates and nulls) of a column, in row order. *)

val min_max : t -> int -> (Value.t * Value.t) option
(** Smallest and largest non-null value of a column, or [None] when the
    column is entirely null or the relation is empty. *)

val rename : t -> string -> t
(** Shallow copy under a new table alias; shares tuple storage. *)

val pp : ?max_rows:int -> Format.formatter -> t -> unit
(** Render as an aligned text table, truncated to [max_rows] (default 20). *)
