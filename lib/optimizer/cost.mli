(** Cost model.

    Costs are in the executor's work units (tuples read + comparisons +
    tuples emitted), so an optimizer estimate and an executed plan's
    counters are directly comparable. All row counts entering these
    formulas are {e estimates}; feeding them mis-estimated cardinalities
    mis-ranks plans — which is exactly the phenomenon the paper's Section 8
    experiment demonstrates.

    Join inputs, matching the executor:
    - nested loop re-executes the inner scan once per outer tuple;
    - sort-merge scans the inner once, sorts both (filtered) sides and
      merges;
    - hash scans the inner once, builds on the filtered inner and probes
      once per outer tuple;
    - index nested loop builds a hash index on the inner's join column
      once, then touches only matching inner tuples per outer tuple. *)

val sort_cost : float -> float
(** [n log2 n] comparisons (at least 0). *)

val scan : base_rows:float -> float
(** Reading a base table once. *)

val nested_loop :
  outer_rows:float -> inner_base_rows:float -> out_rows:float -> float
(** Added cost of the join node itself (the outer subtree's cost is the
    caller's). *)

val sort_merge :
  outer_rows:float ->
  inner_base_rows:float ->
  inner_rows:float ->
  out_rows:float ->
  float

val hash :
  outer_rows:float ->
  inner_base_rows:float ->
  inner_rows:float ->
  out_rows:float ->
  float

val index_nested_loop :
  outer_rows:float -> inner_base_rows:float -> out_rows:float -> float
(** Index build (one inner scan) plus one probe per outer tuple plus one
    read per matching inner tuple (≈ [out_rows]). *)

(** {2 Pricing a join}

    Every enumerator prices a join node through one float array of slots,
    so no float crosses a module boundary: a boxed one would be allocated
    when the build does no cross-module inlining (dune's dev profile
    compiles with [-opaque]). *)

val slot_outer_rows : int
val slot_inner_base_rows : int
val slot_inner_rows : int
val slot_out_rows : int
val slot_cost : int

val slots : int
(** Length of an array {!join_into} reads and writes. The slots sit a
    cache line from either end of it, so one domain's pricing array
    shares no cache line with another object. *)

val join_into : Exec.Plan.join_method -> float array -> unit
(** [join_into method_ io] sets [io.(slot_cost)] to the method's formula
    over the rows in the other four slots. Allocation-free. *)
