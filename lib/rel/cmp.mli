(** Comparison operators.

    Shared by predicates, the SQL front end and selectivity estimation.
    The paper's conjunctive queries use exactly these six operators. *)

type t =
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge

val holds : t -> int -> bool
(** [holds op c] interprets [c] (a [compare]-style result for [lhs ? rhs])
    under [op]; e.g. [holds Lt (-1) = true]. *)

val eval : t -> Value.t -> Value.t -> bool
(** SQL semantics: any comparison involving [Null] is false. Ordering is
    {!Value.compare_sem}, so mixed [Int]/[Float] operands compare by
    numeric value rather than type rank. *)

val flip : t -> t
(** Operator seen from the other side: [a < b] iff [b > a]. *)

val negate : t -> t

val to_string : t -> string
val pp : Format.formatter -> t -> unit
