type t = {
  schema : Schema.t;
  rows : Tuple.t Vec.t;
}

let create schema = { schema; rows = Vec.create () }

let schema t = t.schema
let cardinality t = Vec.length t.rows

let conforms schema tuple =
  Tuple.arity tuple = Schema.arity schema
  && List.for_all
       (fun i -> Value.has_type (Schema.get schema i).Schema.ty tuple.(i))
       (List.init (Schema.arity schema) Fun.id)

let insert t tuple =
  if not (conforms t.schema tuple) then
    invalid_arg "Relation.insert: tuple does not conform to schema";
  Vec.push t.rows tuple

let insert_values t values = insert t (Tuple.of_list values)

let get t i = Vec.get t.rows i
let iter f t = Vec.iter f t.rows
let fold f acc t = Vec.fold_left f acc t.rows
let to_list t = Vec.to_list t.rows

let of_tuples schema tuples =
  let r = create schema in
  List.iter (insert r) tuples;
  r

let copy t = { t with rows = Vec.copy t.rows }

let distinct_count t col =
  let seen = Hashtbl.create 1024 in
  iter
    (fun row ->
      let v = row.(col) in
      if not (Value.is_null v) then
        if not (Hashtbl.mem seen v) then Hashtbl.add seen v ())
    t;
  Hashtbl.length seen

let column_values t col =
  Array.init (cardinality t) (fun i -> (get t i).(col))

let min_max t col =
  fold
    (fun acc row ->
      let v = row.(col) in
      if Value.is_null v then acc
      else
        match acc with
        | None -> Some (v, v)
        | Some (lo, hi) ->
          let lo = if Value.compare v lo < 0 then v else lo in
          let hi = if Value.compare v hi > 0 then v else hi in
          Some (lo, hi))
    None t

let rename t alias = { t with schema = Schema.rename_table t.schema alias }

let pp ?(max_rows = 20) ppf t =
  let headers =
    List.map
      (fun c -> Printf.sprintf "%s.%s" c.Schema.table c.Schema.name)
      (Schema.columns t.schema)
  in
  let shown = min max_rows (cardinality t) in
  let cells =
    List.init shown (fun i ->
        Array.to_list (Array.map Value.to_string (get t i)))
  in
  let widths =
    List.mapi
      (fun j h ->
        List.fold_left
          (fun w row -> max w (String.length (List.nth row j)))
          (String.length h) cells)
      headers
  in
  let pad s w = s ^ String.make (w - String.length s) ' ' in
  let render_row cols =
    String.concat " | " (List.map2 pad cols widths)
  in
  Format.fprintf ppf "%s@." (render_row headers);
  Format.fprintf ppf "%s@."
    (String.concat "-+-" (List.map (fun w -> String.make w '-') widths));
  List.iter (fun row -> Format.fprintf ppf "%s@." (render_row row)) cells;
  if cardinality t > shown then
    Format.fprintf ppf "... (%d rows total)@." (cardinality t)
