let position schema (c : Query.Cref.t) =
  Rel.Schema.index_of schema ~table:c.Query.Cref.table
    ~name:c.Query.Cref.column

let split ~left ~right preds =
  let keys = ref [] and residual = ref [] in
  List.iter
    (fun p ->
      let bridged =
        match p with
        | Query.Predicate.Col_cmp
            { left = a; op = Query.Predicate.Eq; right = b } -> begin
          match position left a, position right b with
          | Some i, Some j -> Some (i, j)
          | None, _ | _, None -> begin
            match position left b, position right a with
            | Some i, Some j -> Some (i, j)
            | None, _ | _, None -> None
          end
        end
        | Query.Predicate.Col_cmp _ | Query.Predicate.Cmp _ -> None
      in
      match bridged with
      | Some pair -> keys := pair :: !keys
      | None ->
        (* Will be evaluated on the concatenated schema; check it is
           evaluable there at all. *)
        let concat = Rel.Schema.concat left right in
        List.iter
          (fun c ->
            if position concat c = None then
              invalid_arg
                (Printf.sprintf
                   "Join_keys.split: %s references a column outside the join"
                   (Query.Predicate.to_string p)))
          (Query.Predicate.columns p);
        residual := p :: !residual)
    preds;
  (List.rev !keys, List.rev !residual)

let comparison_driver ~left ~right preds =
  let rec find = function
    | [] -> None
    | p :: rest -> begin
      match p with
      | Query.Predicate.Col_cmp { left = a; op; right = b }
        when op <> Query.Predicate.Eq -> begin
        match position left a, position right b with
        | Some i, Some j -> Some (p, i, j, op)
        | None, _ | _, None -> begin
          match position left b, position right a with
          | Some i, Some j -> Some (p, i, j, Query.Predicate.mirror op)
          | None, _ | _, None -> find rest
        end
      end
      | Query.Predicate.Col_cmp _ | Query.Predicate.Cmp _ -> find rest
    end
  in
  find preds

let rec has_null cols tuple =
  match cols with
  | [] -> false
  | i :: rest -> Rel.Value.is_null tuple.(i) || has_null rest tuple

let rec match_at keys left right =
  match keys with
  | [] -> true
  | (i, j) :: rest ->
    Rel.Value.sql_equal left.(i) right.(j) && match_at rest left right
