let version = 1

type budget_spec = {
  deadline_ms : float option;
  node_budget : int option;
  row_budget : int option;
}

type op =
  | Estimate of {
      sql : string;
      estimator : string option;
      order : string list option;
    }
  | Explain of {
      sql : string;
      estimator : string option;
      enumerator : string option;
    }
  | Run of {
      sql : string;
      estimator : string option;
      enumerator : string option;
    }
  | Analyze of { table : string option; shards : int option }
  | Health
  | Drain

type request = { id : string option; op : op; budget : budget_spec }

let op_name = function
  | Estimate _ -> "estimate"
  | Explain _ -> "explain"
  | Run _ -> "run"
  | Analyze _ -> "analyze"
  | Health -> "health"
  | Drain -> "drain"

let op_names = [ "estimate"; "explain"; "run"; "analyze"; "health"; "drain" ]

(* --- parsing --- *)

let invalid detail = Error (Els.Els_error.Invalid_query { detail })

let ( let* ) = Result.bind

let field name json = Obs.Json.member name json

let string_field name json =
  match field name json with
  | None | Some Obs.Json.Null -> Ok None
  | Some (Obs.Json.String s) -> Ok (Some s)
  | Some _ -> invalid (Printf.sprintf "field %S must be a string" name)

let required_sql json =
  let* sql = string_field "sql" json in
  match sql with
  | Some s when String.trim s <> "" -> Ok s
  | Some _ | None -> invalid "field \"sql\" is required and must be non-empty"

let int_field name json =
  match field name json with
  | None | Some Obs.Json.Null -> Ok None
  | Some (Obs.Json.Int i) -> Ok (Some i)
  | Some _ -> invalid (Printf.sprintf "field %S must be an integer" name)

let number_field name json =
  match field name json with
  | None | Some Obs.Json.Null -> Ok None
  | Some (Obs.Json.Int i) -> Ok (Some (float_of_int i))
  | Some (Obs.Json.Float x) -> Ok (Some x)
  | Some _ -> invalid (Printf.sprintf "field %S must be a number" name)

let string_list_field name json =
  match field name json with
  | None | Some Obs.Json.Null -> Ok None
  | Some (Obs.Json.List items) ->
    let rec strings acc = function
      | [] -> Ok (Some (List.rev acc))
      | Obs.Json.String s :: rest -> strings (s :: acc) rest
      | _ ->
        invalid (Printf.sprintf "field %S must be a list of strings" name)
    in
    strings [] items
  | Some _ -> invalid (Printf.sprintf "field %S must be a list of strings" name)

let parse_budget json =
  let* deadline_ms = number_field "deadline_ms" json in
  let* () =
    match deadline_ms with
    | Some d when not (d > 0.) -> invalid "field \"deadline_ms\" must be > 0"
    | Some _ | None -> Ok ()
  in
  let* node_budget = int_field "node_budget" json in
  let* row_budget = int_field "row_budget" json in
  let* () =
    match (node_budget, row_budget) with
    | Some n, _ when n < 0 -> invalid "field \"node_budget\" must be >= 0"
    | _, Some n when n < 0 -> invalid "field \"row_budget\" must be >= 0"
    | _ -> Ok ()
  in
  Ok { deadline_ms; node_budget; row_budget }

let parse_op json =
  let* op = string_field "op" json in
  match op with
  | None -> invalid "field \"op\" is required"
  | Some name -> begin
    match String.lowercase_ascii name with
    | "estimate" ->
      let* sql = required_sql json in
      let* estimator = string_field "estimator" json in
      let* order = string_list_field "order" json in
      Ok (Estimate { sql; estimator; order })
    | "explain" ->
      let* sql = required_sql json in
      let* estimator = string_field "estimator" json in
      let* enumerator = string_field "enumerator" json in
      Ok (Explain { sql; estimator; enumerator })
    | "run" ->
      let* sql = required_sql json in
      let* estimator = string_field "estimator" json in
      let* enumerator = string_field "enumerator" json in
      Ok (Run { sql; estimator; enumerator })
    | "analyze" ->
      let* table = string_field "table" json in
      let* shards = int_field "shards" json in
      let* () =
        match shards with
        | Some s when s < 1 -> invalid "field \"shards\" must be >= 1"
        | Some _ | None -> Ok ()
      in
      Ok (Analyze { table; shards })
    | "health" -> Ok Health
    | "drain" -> Ok Drain
    | other ->
      invalid
        (Printf.sprintf "unknown op %S%s" other
           (Catalog.Suggest.hint ~candidates:op_names other))
  end

let parse ?(max_frame_bytes = 1_048_576) frame =
  if String.length frame > max_frame_bytes then
    Error
      ( None,
        Els.Els_error.Parse_error
          {
            position = max_frame_bytes;
            detail =
              Printf.sprintf "frame longer than %d bytes" max_frame_bytes;
          } )
  else
    (* The nesting/token caps make the boundary total: a frame of 100k
       open brackets is a parse error, not a stack overflow. *)
    match
      Obs.Json.of_string ~max_depth:64 ~max_token_bytes:max_frame_bytes frame
    with
    | Error detail ->
      Error (None, Els.Els_error.Parse_error { position = 0; detail })
    | Ok json -> begin
      match json with
      | Obs.Json.Obj _ ->
        let id =
          match field "id" json with
          | Some (Obs.Json.String s) -> Some s
          | Some (Obs.Json.Int i) -> Some (string_of_int i)
          | Some _ | None -> None
        in
        let request =
          let* () =
            match field "v" json with
            | None | Some (Obs.Json.Int 1) -> Ok ()
            | Some (Obs.Json.Int v) ->
              invalid
                (Printf.sprintf
                   "unsupported protocol version %d (supported: %d)" v version)
            | Some _ -> invalid "field \"v\" must be an integer"
          in
          let* op = parse_op json in
          let* budget = parse_budget json in
          Ok { id; op; budget }
        in
        (* A refusal still echoes whatever id the frame carried, so the
           client can correlate it with its request. *)
        Result.map_error (fun e -> (id, e)) request
      | _ -> Error (None, Els.Els_error.Invalid_query { detail = "frame is not a JSON object" })
    end

(* --- responses --- *)

let json_id = function
  | Some id -> Obs.Json.String id
  | None -> Obs.Json.Null

let response_ok ~id ~op fields =
  Obs.Json.Obj
    ([
       ("id", json_id id);
       ("ok", Obs.Json.Bool true);
       ("op", Obs.Json.String op);
     ]
    @ fields)

let error_kind = function
  | Els.Els_error.Missing_stats _ -> "missing-stats"
  | Els.Els_error.Corrupt_stats _ -> "corrupt-stats"
  | Els.Els_error.Invalid_query _ -> "invalid-query"
  | Els.Els_error.Parse_error _ -> "parse-error"
  | Els.Els_error.Invariant_violation _ -> "invariant-violation"
  | Els.Els_error.Budget_exhausted _ -> "budget-exhausted"
  | Els.Els_error.Overloaded _ -> "overloaded"

let error_fields = function
  | Els.Els_error.Overloaded { depth; shed_policy } ->
    [ ("depth", Obs.Json.Int depth);
      ("shed_policy", Obs.Json.String shed_policy) ]
  | Els.Els_error.Budget_exhausted { site; resource; _ } ->
    [ ("resource", Obs.Json.String (Rel.Budget.resource_name resource));
      ("site", Obs.Json.String site) ]
  | Els.Els_error.Parse_error { position; _ } ->
    [ ("position", Obs.Json.Int position) ]
  | Els.Els_error.Missing_stats _ | Els.Els_error.Corrupt_stats _
  | Els.Els_error.Invalid_query _ | Els.Els_error.Invariant_violation _ -> []

let response_error ~id ?(extra = []) err =
  Obs.Json.Obj
    [
      ("id", json_id id);
      ("ok", Obs.Json.Bool false);
      ( "error",
        Obs.Json.Obj
          (( ("kind", Obs.Json.String (error_kind err))
           :: ("detail", Obs.Json.String (Els.Els_error.to_string err))
           :: error_fields err )
          @ extra) );
    ]
