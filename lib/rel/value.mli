(** Scalar values stored in relations.

    The engine supports the small set of scalar types needed by the paper's
    workloads: 64-bit integers, floats, strings, booleans and SQL [NULL].
    Values are immutable; all operations are total. *)

type t =
  | Null
  | Int of int
  | Float of float
  | String of string
  | Bool of bool

(** Runtime type tags, used by schemas to declare column types. *)
type ty =
  | Ty_int
  | Ty_float
  | Ty_string
  | Ty_bool

val type_of : t -> ty option
(** [type_of v] is the type tag of [v], or [None] for [Null]. *)

val ty_name : ty -> string
(** [ty_name ty] is a lower-case SQL-ish name ("int", "float", ...). *)

val has_type : ty -> t -> bool
(** [has_type ty v] is true when [v] is [Null] or carries type [ty]. [Null]
    is a member of every type, as in SQL. *)

val is_null : t -> bool

val compare : t -> t -> int
(** Total order used for sorting and sort-merge joins. [Null] sorts before
    every non-null value; values of distinct types are ordered by an
    arbitrary but fixed type rank. Numeric values of the same type compare
    numerically; [Int] and [Float] are distinct types and do not mix. *)

val equal : t -> t -> bool
(** Structural equality. Unlike SQL three-valued logic, [equal Null Null] is
    [true]; predicate evaluation (see {!Query.Eval}) layers SQL semantics on
    top where needed. *)

val compare_sem : t -> t -> int
(** Numeric-aware order for predicate evaluation: [Int] and [Float] compare
    by numeric value ([compare_sem (Int 5) (Float 3.0) > 0]), every other
    pair falls back to {!compare}. Sort keys and indexes must keep using
    {!compare}, whose type-rank order is total and hash-compatible. Integers
    beyond 2^53 lose precision in the mixed comparison. *)

val equal_sem : t -> t -> bool
(** [compare_sem a b = 0]: numeric-value equality across [Int]/[Float]. *)

val hash : t -> int
(** Hash compatible with {!equal}; used by hash joins and distinct counts. *)

val sql_equal : t -> t -> bool
(** SQL equality: [false] whenever either side is [Null]. *)

val int_exn : t -> int
(** [int_exn v] extracts an integer. @raise Invalid_argument otherwise. *)

val float_exn : t -> float
(** [float_exn v] extracts a float, coercing [Int]. @raise Invalid_argument
    on non-numeric values. *)

val pp : Format.formatter -> t -> unit
(** Render a value as it would appear in a result table. *)

val to_string : t -> string
