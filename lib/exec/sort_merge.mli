(** Sort-merge join: equality keys, inequality and band drivers.

    Both inputs are materialized and sorted when the join is built (sort
    comparisons are charged to the work counters; input reads are charged
    by the child operators). With equi-join keys, the sorted inputs are
    merged, pairing each left tuple with the run of right tuples sharing
    its key, so m×n matches within a key group are all produced.

    With no equi-key but a comparison predicate ([R.a < S.b],
    [|R.a - S.b| <= eps]) bridging the inputs, both sides are sorted on
    the driving columns and merged by a monotone window: for each right
    tuple the qualifying left tuples are a prefix ([Lt]/[Le]), a suffix
    ([Gt]/[Ge]) or a two-pointer band window of the sorted left input, so
    the merge does O(n log n) sort comparisons plus O(output) emission
    work. Remaining predicates are evaluated as residuals on the
    concatenated tuple.

    NULL keys never match and are skipped (as are non-numeric keys under
    a band driver). *)

val join :
  Counters.t ->
  Query.Predicate.t list ->
  outer:Operator.t ->
  inner:Operator.t ->
  Operator.t
(** Every emitted row goes through {!Emit.joiner}, so it spends the
    counters' row budget.
    @raise Invalid_argument when neither an equi-key nor a comparison
    predicate bridges the two inputs. *)
