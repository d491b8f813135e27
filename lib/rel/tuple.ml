type t = Value.t array

let of_list = Array.of_list
let arity = Array.length
let get t i = t.(i)
let concat = Array.append

let project t positions =
  Array.of_list (List.map (fun i -> t.(i)) positions)

let equal a b =
  arity a = arity b && Array.for_all2 Value.equal a b

let compare_at cols a b =
  let rec loop = function
    | [] -> 0
    | i :: rest ->
      let c = Value.compare a.(i) b.(i) in
      if c <> 0 then c else loop rest
  in
  loop cols

let rec hash_cols t acc = function
  | [] -> acc
  | i :: rest -> hash_cols t ((acc * 31) + Value.hash t.(i)) rest

let hash_at cols t = hash_cols t 17 cols

let pp ppf t =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Value.pp)
    (Array.to_list t)
