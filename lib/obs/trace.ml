type span = {
  name : string;
  start_s : float;
  duration_s : float;
  attrs : (string * Json.t) list;
  children : span list;
}

(* Open spans accumulate children and attributes in reverse; they are
   reified into the immutable [span] on close. *)
type open_span = {
  span_name : string;
  started : float;
  mutable attrs_rev : (string * Json.t) list;
  mutable children_rev : span list;
}

type t = {
  clock : unit -> float;
  mutable roots_rev : span list;
  mutable stack : open_span list;  (* innermost first *)
}

let create ?(clock = Unix.gettimeofday) () =
  { clock; roots_rev = []; stack = [] }

let close t node =
  let finished =
    {
      name = node.span_name;
      start_s = node.started;
      duration_s = t.clock () -. node.started;
      attrs = List.rev node.attrs_rev;
      children = List.rev node.children_rev;
    }
  in
  match t.stack with
  | parent :: _ -> parent.children_rev <- finished :: parent.children_rev
  | [] -> t.roots_rev <- finished :: t.roots_rev

let with_span tracer name f =
  match tracer with
  | None -> f ()
  | Some t ->
    let node =
      { span_name = name; started = t.clock (); attrs_rev = []; children_rev = [] }
    in
    t.stack <- node :: t.stack;
    let pop () =
      (match t.stack with
      | top :: rest when top == node -> t.stack <- rest
      | _ ->
        (* Unbalanced closes can only come from this module misusing its
           own stack; fail loudly in development builds. *)
        assert false);
      close t node
    in
    Fun.protect ~finally:pop f

let attr tracer key value =
  match tracer with
  | None -> ()
  | Some t -> begin
    match t.stack with
    | [] -> ()
    | top :: _ -> top.attrs_rev <- (key, value) :: top.attrs_rev
  end

let attr_str tracer key v = attr tracer key (Json.String v)
let attr_int tracer key v = attr tracer key (Json.Int v)

let roots t = List.rev t.roots_rev

let pp ppf t =
  let rec render indent s =
    Format.fprintf ppf "%s%s  %.3fms" indent s.name (1000. *. s.duration_s);
    List.iter
      (fun (k, v) -> Format.fprintf ppf " %s=%a" k Json.pp v)
      s.attrs;
    Format.pp_print_newline ppf ();
    List.iter (render (indent ^ "  ")) s.children
  in
  List.iter (render "") (roots t)

let rec span_json s =
  Json.Obj
    [
      ("name", Json.String s.name);
      ("start_s", Json.Float s.start_s);
      ("duration_s", Json.Float s.duration_s);
      ("attrs", Json.Obj s.attrs);
      ("children", Json.List (List.map span_json s.children));
    ]

let to_json t = Json.Obj [ ("spans", Json.List (List.map span_json (roots t))) ]
