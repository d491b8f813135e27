type t =
  | Null
  | Int of int
  | Float of float
  | String of string
  | Bool of bool

type ty =
  | Ty_int
  | Ty_float
  | Ty_string
  | Ty_bool

let type_of = function
  | Null -> None
  | Int _ -> Some Ty_int
  | Float _ -> Some Ty_float
  | String _ -> Some Ty_string
  | Bool _ -> Some Ty_bool

let ty_name = function
  | Ty_int -> "int"
  | Ty_float -> "float"
  | Ty_string -> "string"
  | Ty_bool -> "bool"

let has_type ty v =
  match type_of v with
  | None -> true
  | Some ty' -> ty = ty'

let is_null = function
  | Null -> true
  | Int _ | Float _ | String _ | Bool _ -> false

(* Rank puts Null first so that ORDER BY and sort-merge joins place nulls
   together at the front. *)
let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Float _ -> 3
  | String _ -> 4

let compare a b =
  match a, b with
  | Null, Null -> 0
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | String x, String y -> String.compare x y
  | Bool x, Bool y -> Bool.compare x y
  | (Null | Int _ | Float _ | String _ | Bool _), _ ->
    Int.compare (rank a) (rank b)

let equal a b = compare a b = 0

(* Numeric-aware order for predicate evaluation: Int and Float compare by
   value instead of by type rank, so [Int 5 < Float 3.0] is false. Ints
   beyond 2^53 lose precision in the float conversion; the workloads the
   engine targets (catalog cardinalities, generated keys) stay far below
   that. All other type pairs keep the total rank order. *)
let compare_sem a b =
  match a, b with
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | (Null | Int _ | Float _ | String _ | Bool _), _ -> compare a b

let equal_sem a b = compare_sem a b = 0

let hash = function
  | Null -> 0x9e37
  | Int x -> Hashtbl.hash (1, x)
  | Float x -> Hashtbl.hash (2, x)
  | String s -> Hashtbl.hash (3, s)
  | Bool b -> Hashtbl.hash (4, b)

let sql_equal a b =
  if is_null a || is_null b then false else equal a b

let int_exn = function
  | Int x -> x
  | Null | Float _ | String _ | Bool _ ->
    invalid_arg "Value.int_exn: not an integer"

let float_exn = function
  | Float x -> x
  | Int x -> float_of_int x
  | Null | String _ | Bool _ -> invalid_arg "Value.float_exn: not numeric"

let pp ppf = function
  | Null -> Format.pp_print_string ppf "NULL"
  | Int x -> Format.pp_print_int ppf x
  | Float x -> Format.fprintf ppf "%g" x
  | String s -> Format.fprintf ppf "%S" s
  | Bool b -> Format.pp_print_bool ppf b

let to_string v = Format.asprintf "%a" pp v
