type compiled = Rel.Tuple.t -> bool
type compiled_pair = Rel.Tuple.t -> Rel.Tuple.t -> bool

let index schema cref =
  match
    Rel.Schema.index_of schema ~table:cref.Cref.table ~name:cref.Cref.column
  with
  | Some i -> i
  | None ->
    invalid_arg
      (Printf.sprintf "Eval.compile: column %s not in schema"
         (Cref.to_string cref))

(* Column [i] of a (left, right) pair read as its concatenation: the left
   tuple holds the first [split] columns. A lone tuple is a pair whose
   split lies past its last column. *)
let[@inline] at split l r i = if i < split then l.(i) else r.(i - split)

let compile_at ~split schema = function
  | Predicate.Cmp { col; op; const } ->
    let i = index schema col in
    fun l r -> Rel.Cmp.eval op (at split l r i) const
  | Predicate.Col_cmp { left; op = Predicate.Eq; right } ->
    let i = index schema left and j = index schema right in
    fun l r -> Rel.Value.sql_equal (at split l r i) (at split l r j)
  | Predicate.Col_cmp { left; op = Predicate.Band eps; right } ->
    let i = index schema left and j = index schema right in
    fun l r ->
      let x = at split l r i and y = at split l r j in
      (* SQL three-valued logic: NULL on either side never qualifies.
         Non-numeric values cannot be within a numeric band. *)
      (match x, y with
      | (Rel.Value.Int _ | Rel.Value.Float _),
        (Rel.Value.Int _ | Rel.Value.Float _) ->
        Float.abs (Rel.Value.float_exn x -. Rel.Value.float_exn y) <= eps
      | _ -> false)
  | Predicate.Col_cmp { left; op; right } ->
    let i = index schema left and j = index schema right in
    let op =
      match Predicate.cmp_of_comparison op with
      | Some op -> op
      | None -> assert false (* Eq and Band handled above *)
    in
    fun l r -> Rel.Cmp.eval op (at split l r i) (at split l r j)

let rec all_hold l r = function
  | [] -> true
  | p :: rest -> p l r && all_hold l r rest

let compile_pair schema ~split predicates =
  match List.map (compile_at ~split schema) predicates with
  | [] -> fun _ _ -> true
  | [ p ] -> p
  | compiled -> fun l r -> all_hold l r compiled

let compile schema predicate =
  let p = compile_at ~split:max_int schema predicate in
  fun tuple -> p tuple tuple

let compile_all schema predicates =
  let p = compile_pair schema ~split:max_int predicates in
  fun tuple -> p tuple tuple
