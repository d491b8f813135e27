(* Every formula is [@inline] so [join_into] evaluates them without a
   call, and so without boxing a float: under [-opaque] (dune's dev
   profile) nothing inlines across modules, so the enumerators reach them
   through [join_into]'s float-array slots. Without the attributes the
   exhaustive enumerator allocates about 11 words per expansion. *)

let log2 = Float.log 2.

let[@inline] sort_cost n = if n <= 1. then 0. else n *. (Float.log n /. log2)

let[@inline] scan ~base_rows = Float.max 0. base_rows

let[@inline] nested_loop ~outer_rows ~inner_base_rows ~out_rows =
  (Float.max 0. outer_rows *. Float.max 0. inner_base_rows)
  +. Float.max 0. out_rows

let[@inline] sort_merge ~outer_rows ~inner_base_rows ~inner_rows ~out_rows =
  scan ~base_rows:inner_base_rows
  +. sort_cost (Float.max 0. outer_rows)
  +. sort_cost (Float.max 0. inner_rows)
  +. Float.max 0. outer_rows +. Float.max 0. inner_rows
  +. Float.max 0. out_rows

let[@inline] hash ~outer_rows ~inner_base_rows ~inner_rows ~out_rows =
  scan ~base_rows:inner_base_rows
  +. Float.max 0. inner_rows (* build *)
  +. Float.max 0. outer_rows (* probe *)
  +. Float.max 0. out_rows

let[@inline] index_nested_loop ~outer_rows ~inner_base_rows ~out_rows =
  scan ~base_rows:inner_base_rows (* index build *)
  +. Float.max 0. outer_rows (* probes *)
  +. (2. *. Float.max 0. out_rows) (* matched reads + emitted rows *)

let[@inline] join method_ ~outer_rows ~inner_base_rows ~inner_rows ~out_rows =
  match method_ with
  | Exec.Plan.Nested_loop -> nested_loop ~outer_rows ~inner_base_rows ~out_rows
  | Exec.Plan.Sort_merge ->
    sort_merge ~outer_rows ~inner_base_rows ~inner_rows ~out_rows
  | Exec.Plan.Hash -> hash ~outer_rows ~inner_base_rows ~inner_rows ~out_rows
  | Exec.Plan.Index_nested_loop ->
    index_nested_loop ~outer_rows ~inner_base_rows ~out_rows

(* The slots sit [pad] words from either end of the array, so a cache
   line holding one holds no other object: each of DP's lanes prices into
   an array of its own on its own domain. *)
let pad = 8
let slot_outer_rows = pad
let slot_inner_base_rows = pad + 1
let slot_inner_rows = pad + 2
let slot_out_rows = pad + 3
let slot_cost = pad + 4
let slots = 5 + (2 * pad)

let join_into method_ io =
  io.(slot_cost) <-
    join method_ ~outer_rows:io.(slot_outer_rows)
      ~inner_base_rows:io.(slot_inner_base_rows)
      ~inner_rows:io.(slot_inner_rows) ~out_rows:io.(slot_out_rows)
