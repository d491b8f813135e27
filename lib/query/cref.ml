module T = struct
  type t = {
    table : string;
    column : string;
  }

  let compare a b =
    match String.compare a.table b.table with
    | 0 -> String.compare a.column b.column
    | c -> c
end

include T

let make ~table ~column =
  {
    table = String.lowercase_ascii table;
    column = String.lowercase_ascii column;
  }

let v table column = make ~table ~column

let equal a b = compare a b = 0

let same_table a b = String.equal a.table b.table

let to_string t = t.table ^ "." ^ t.column
let pp ppf t = Format.pp_print_string ppf (to_string t)

module Set = Set.Make (T)
module Map = Map.Make (T)
