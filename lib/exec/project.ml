let columns crefs input =
  let in_schema = Operator.schema input in
  let positions =
    List.map
      (fun (c : Query.Cref.t) ->
        match
          Rel.Schema.index_of in_schema ~table:c.Query.Cref.table
            ~name:c.Query.Cref.column
        with
        | Some i -> i
        | None ->
          invalid_arg
            (Printf.sprintf "Project.columns: %s not in input"
               (Query.Cref.to_string c)))
      crefs
  in
  Operator.make (Rel.Schema.project in_schema positions) (fun k ->
      Operator.iter (fun tuple -> k (Rel.Tuple.project tuple positions)) input)

let count_star input = Operator.count input
