(** Exact per-value counts of one column: the one counting pass behind
    {!Col_stats.of_values}, {!Degree.of_values} and {!Mcv.build}. Open
    addressing (load at most ½, linear probing) keyed by {!Rel.Value.equal}
    under a hash of its own; each domain keeps one table between columns,
    so counting allocates nothing per value. *)

type t = private {
  keys : Rel.Value.t array;  (** the value counted in each slot *)
  counts : int array;  (** its count; 0 in a free slot *)
  slots : int;  (** the prefix of both arrays this column uses *)
  mutable distinct : int;  (** slots in use *)
  mutable nulls : int;  (** nulls skipped *)
}

val count : ?first:(Rel.Value.t -> unit) -> Rel.Value.t array -> (t -> 'a) -> 'a
(** [count values f] counts the non-null values of a column and returns [f]
    of the table, which is then cleared, so it keeps no value alive; [f]
    must not keep it. [first v] runs on the first [v] of each value. A later
    equal value is stored over it, as [Hashtbl.replace] does, so a float
    key has the bits of the last (-0.0 or 0.0, or one of two NaNs). *)
