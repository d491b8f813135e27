type t = {
  schema : Rel.Schema.t;
  iter : (Rel.Tuple.t -> unit) -> unit;
}

let make schema iter = { schema; iter }
let schema t = t.schema
let iter k t = t.iter k
let of_list schema tuples = make schema (fun k -> List.iter k tuples)

let of_relation relation =
  make (Rel.Relation.schema relation) (fun k -> Rel.Relation.iter k relation)

let to_relation t =
  let out = Rel.Relation.create t.schema in
  iter (Rel.Relation.insert out) t;
  out

let count t =
  let n = ref 0 in
  iter (fun _ -> incr n) t;
  !n

let fold f acc t =
  let acc = ref acc in
  iter (fun tuple -> acc := f !acc tuple) t;
  !acc
