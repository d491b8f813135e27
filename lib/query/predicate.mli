(** Conjunct predicates of a query.

    Following the paper's terminology, extended to comparison joins:
    - a {e local} predicate compares a column with a constant
      ([R.x op c]), or relates two columns {e of the same table}
      ([R.y = R.w], the kind produced by transitive-closure rule 2b);
    - a {e join} predicate relates columns of two different tables. The
      paper only treats the equality form ([R1.x = R2.y]); this
      reproduction generalizes to inequality joins ([R1.x < R2.y]) and
      band joins ([|R1.x - R2.y| <= eps]).

    Both column-comparison shapes share the {!constructor:Col_cmp}
    constructor; {!is_join} distinguishes them. Column comparisons are
    kept in canonical order (smaller reference first, directional
    operators mirrored as needed), so structural equality identifies
    duplicates regardless of how the query spelled them. *)

type comparison =
  | Eq
  | Lt
  | Le
  | Gt
  | Ge
  | Band of float
      (** [Band eps]: [|left - right| <= eps]; symmetric, like [Eq]. *)

type t =
  | Cmp of {
      col : Cref.t;
      op : Rel.Cmp.t;
      const : Rel.Value.t;
    }  (** [col op const] *)
  | Col_cmp of {
      left : Cref.t;
      op : comparison;
      right : Cref.t;
    }
      (** [left op right]; canonicalized so [Cref.compare left right < 0]
          (directional operators are mirrored when the sides swap). *)

val cmp : Cref.t -> Rel.Cmp.t -> Rel.Value.t -> t

val col_cmp : Cref.t -> comparison -> Cref.t -> t
(** Canonicalizing smart constructor: [col_cmp b Gt a] and
    [col_cmp a Lt b] build the same value.
    @raise Invalid_argument when both sides are the same column, or when a
    band epsilon is negative or non-finite. *)

val col_eq : Cref.t -> Cref.t -> t
(** [col_eq a b = col_cmp a Eq b]. *)

val mirror : comparison -> comparison
(** The operator as seen from the other side: [a op b] iff
    [b (mirror op) a]. Symmetric operators ([Eq], [Band]) are fixed
    points. *)

val comparison_of_cmp : Rel.Cmp.t -> comparison option
(** [None] only for {!Rel.Cmp.Ne}, which is not a supported join
    comparison. *)

val cmp_of_comparison : comparison -> Rel.Cmp.t option
(** [None] only for [Band _], which has no single-operator equivalent. *)

(** Coarse predicate-kind taxonomy used for derivation-card labels and
    metrics: equality, directional inequality, or band. *)
type kind =
  | Kind_eq
  | Kind_ineq
  | Kind_band

val kind : t -> kind option
(** [None] for local constant comparisons ({!constructor:Cmp}). *)

val kind_name : kind -> string
(** ["eq"], ["ineq"] or ["band"]. *)

val is_join : t -> bool
(** A {!constructor:Col_cmp} across two distinct tables. *)

val is_equijoin : t -> bool
(** A {!constructor:Col_cmp} with [op = Eq] across two distinct tables —
    the only join shape that merges equivalence classes or feeds hash /
    index joins. *)

val is_local : t -> bool
(** A constant comparison, or a column comparison within one table. *)

val columns : t -> Cref.t list

val tables : t -> string list
(** Distinct tables mentioned, in canonical order. *)

val references_only : string list -> t -> bool
(** [references_only tables p]: every column of [p] belongs to [tables]. *)

val compare : t -> t -> int
val equal : t -> t -> bool

val to_string : t -> string
val pp : Format.formatter -> t -> unit

module Set : Set.S with type elt = t
