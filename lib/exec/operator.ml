type t = { schema : Rel.Schema.t; produce : producer }

and producer =
  | Rows of ((Rel.Tuple.t -> unit) -> unit)
  | Pairs of ((Rel.Tuple.t -> Rel.Tuple.t -> unit) -> unit)

let make schema iter = { schema; produce = Rows iter }
let join schema pairs = { schema; produce = Pairs pairs }
let schema t = t.schema

let iter k t =
  match t.produce with
  | Rows produce -> produce k
  | Pairs produce -> produce (fun l r -> k (Rel.Tuple.concat l r))

let of_list schema tuples = make schema (fun k -> List.iter k tuples)

let of_relation relation =
  make (Rel.Relation.schema relation) (fun k -> Rel.Relation.iter k relation)

let to_relation t =
  let out = Rel.Relation.create t.schema in
  iter (Rel.Relation.insert out) t;
  out

let count t =
  let n = ref 0 in
  (match t.produce with
  | Rows produce -> produce (fun _ -> incr n)
  | Pairs produce -> produce (fun _ _ -> incr n));
  !n

let fold f acc t =
  let acc = ref acc in
  iter (fun tuple -> acc := f !acc tuple) t;
  !acc
