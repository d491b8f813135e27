(* The output checker. Every op of every workload ends in exactly one
   [record]: [None] when its outputs are right, [Some failure] otherwise.
   The classifiers below are the only judges, so the checker test can
   drive each failure through the same code the workloads use. *)

type failure =
  | Raised of string  (** the op raised *)
  | Error_result of string  (** the op returned [Error] *)
  | Bad_estimate of float  (** non-finite or negative estimate *)
  | Wrong_rows of { got : int; want : int }  (** executed rows vs truth *)
  | Missing_id of string  (** a serve request never answered *)
  | Duplicate_id of string  (** answered twice, or an id never sent *)
  | Not_ok of string  (** an [ok:false] response, by error kind *)
  | Shed  (** an [overloaded] response *)
  | Mismatch of { got : float; want : float }
      (** a served estimate not bit-equal to the in-process one *)

let describe = function
  | Raised msg -> "raised: " ^ msg
  | Error_result msg -> "error: " ^ msg
  | Bad_estimate x -> Printf.sprintf "bad estimate %h" x
  | Wrong_rows { got; want } -> Printf.sprintf "rows %d, truth %d" got want
  | Missing_id id -> Printf.sprintf "id %s never answered" id
  | Duplicate_id id -> Printf.sprintf "id %s answered twice or never sent" id
  | Not_ok kind -> "ok:false, kind " ^ kind
  | Shed -> "shed"
  | Mismatch { got; want } -> Printf.sprintf "served %h, in-process %h" got want

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable examples : string list;  (** newest first, at most 5 *)
}

let create () = { attempted = 0; failed = 0; examples = [] }

(* [context] names the op in the kept example. *)
let record ?(context = "") t outcome =
  t.attempted <- t.attempted + 1;
  match outcome with
  | None -> ()
  | Some f ->
    t.failed <- t.failed + 1;
    if List.length t.examples < 5 then
      t.examples <- (if context = "" then describe f else context ^ ": " ^ describe f) :: t.examples

let error_rate t =
  if t.attempted = 0 then 0.
  else float_of_int t.failed /. float_of_int t.attempted

(* --- in-process ops --- *)

let protect f = try f () with exn -> Some (Raised (Printexc.to_string exn))
let error e = Error_result (Els.Els_error.to_string e)

let estimate x =
  if Float.is_finite x && x >= 0. then None else Some (Bad_estimate x)

let estimates xs = List.find_map estimate xs
let rows ~want got = if got = want then None else Some (Wrong_rows { got; want })

(* --- serve responses --- *)

let number = function
  | Obs.Json.Float x -> Some x
  | Obs.Json.Int i -> Some (float_of_int i)
  | _ -> None

let field name json = Obs.Json.member name json

let error_kind json =
  match Option.bind (field "error" json) (field "kind") with
  | Some (Obs.Json.String kind) -> kind
  | _ -> "unknown"

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* [expect] is the in-process estimate the response must equal bit for
   bit; [want_rows] the executed truth of a [run]. *)
let response ?expect ?want_rows json =
  match field "ok" json with
  | Some (Obs.Json.Bool true) ->
    let single () =
      match Option.map number (field "estimate" json) with
      | None -> None
      | Some None -> Some (Bad_estimate Float.nan)
      | Some (Some got) -> (
        match (estimate got, expect) with
        | (Some _ as bad), _ -> bad
        | None, Some want when not (same_bits got want) -> Some (Mismatch { got; want })
        | None, _ -> None)
    in
    let listed () =
      match field "estimates" json with
      | Some (Obs.Json.List xs) ->
        estimates (List.map (fun x -> Option.value (number x) ~default:Float.nan) xs)
      | _ -> None
    in
    let executed () =
      match (want_rows, field "rows" json) with
      | Some want, Some (Obs.Json.Int got) -> rows ~want got
      | Some want, _ -> Some (Wrong_rows { got = -1; want })
      | None, _ -> None
    in
    List.find_map (fun check -> check ()) [ single; listed; executed ]
  | _ ->
    let kind = error_kind json in
    if kind = "overloaded" then Some Shed else Some (Not_ok kind)

(* --- serve ids: request [i] is sent as id ["r<i>"] --- *)

type ids = bool array  (** answered, per request *)

let ids n : ids = Array.make n false
let id_of i = "r" ^ string_of_int i

(* The request a response answers, or the failure it is: an id answered
   before, or one that was never sent. *)
let answer (ids : ids) json =
  let id =
    match field "id" json with Some (Obs.Json.String s) -> s | _ -> "?"
  in
  let index =
    if String.length id > 1 && id.[0] = 'r' then
      int_of_string_opt (String.sub id 1 (String.length id - 1))
    else None
  in
  match index with
  | Some i when i >= 0 && i < Array.length ids && not ids.(i) ->
    ids.(i) <- true;
    Ok i
  | _ -> Error (Duplicate_id id)

let missing (ids : ids) =
  List.concat
    (Array.to_list (Array.mapi (fun i seen -> if seen then [] else [ Missing_id (id_of i) ]) ids))
