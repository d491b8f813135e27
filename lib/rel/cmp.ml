type t =
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge

let holds op c =
  match op with
  | Eq -> c = 0
  | Ne -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

(* Predicate truth uses the numeric-aware order: [x < 3.0] on an int
   column must compare values, not type ranks. *)
let eval op a b =
  if Value.is_null a || Value.is_null b then false
  else holds op (Value.compare_sem a b)

let flip = function
  | Eq -> Eq
  | Ne -> Ne
  | Lt -> Gt
  | Le -> Ge
  | Gt -> Lt
  | Ge -> Le

let negate = function
  | Eq -> Ne
  | Ne -> Eq
  | Lt -> Ge
  | Le -> Gt
  | Gt -> Le
  | Ge -> Lt

let to_string = function
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let pp ppf op = Format.pp_print_string ppf (to_string op)
