type summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
}

type value =
  | Counter of int
  | Gauge of float
  | Histogram of summary

type counter = { c_name : string; mutable c_value : int }
type gauge = { g_name : string; mutable g_value : float }
type histogram = { h_name : string; mutable h : summary }

type instrument =
  | I_counter of counter
  | I_gauge of gauge
  | I_histogram of histogram

type t = { instruments : (string, instrument) Hashtbl.t }

let create () = { instruments = Hashtbl.create 64 }

let kind_clash name =
  invalid_arg
    (Printf.sprintf "Metrics: %S is already registered as another kind" name)

let counter t name =
  match Hashtbl.find_opt t.instruments name with
  | Some (I_counter c) -> c
  | Some (I_gauge _ | I_histogram _) -> kind_clash name
  | None ->
    let c = { c_name = name; c_value = 0 } in
    Hashtbl.replace t.instruments name (I_counter c);
    c

let gauge t name =
  match Hashtbl.find_opt t.instruments name with
  | Some (I_gauge g) -> g
  | Some (I_counter _ | I_histogram _) -> kind_clash name
  | None ->
    let g = { g_name = name; g_value = 0. } in
    Hashtbl.replace t.instruments name (I_gauge g);
    g

let empty_summary = { count = 0; sum = 0.; min = Float.nan; max = Float.nan }

let histogram t name =
  match Hashtbl.find_opt t.instruments name with
  | Some (I_histogram h) -> h
  | Some (I_counter _ | I_gauge _) -> kind_clash name
  | None ->
    let h = { h_name = name; h = empty_summary } in
    Hashtbl.replace t.instruments name (I_histogram h);
    h

let incr ?(by = 1) c =
  if by < 0 then
    invalid_arg (Printf.sprintf "Metrics.incr %s: negative step %d" c.c_name by);
  c.c_value <- c.c_value + by

let set_counter c total =
  (* Absorbing an external monotone total must itself stay monotone. *)
  if total > c.c_value then c.c_value <- total

let set g v = g.g_value <- v

let observe h x =
  let s = h.h in
  h.h <-
    {
      count = s.count + 1;
      sum = s.sum +. x;
      min = (if s.count = 0 then x else Float.min s.min x);
      max = (if s.count = 0 then x else Float.max s.max x);
    }

(* Rank ceil(q·n), 1-based; [max 0] covers q = 0. *)
let quantile sorted q =
  match Array.length sorted with
  | 0 -> Float.nan
  | n ->
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    sorted.(max 0 (min n rank - 1))

type snapshot = (string * value) list  (* sorted by name *)

let snapshot t =
  Hashtbl.fold
    (fun name instrument acc ->
      let v =
        match instrument with
        | I_counter c -> Counter c.c_value
        | I_gauge g -> Gauge g.g_value
        | I_histogram h -> Histogram h.h
      in
      (name, v) :: acc)
    t.instruments []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let diff ~before ~after =
  List.map
    (fun (name, v) ->
      match (v, List.assoc_opt name before) with
      | Counter a, Some (Counter b) -> (name, Counter (a - b))
      | Histogram a, Some (Histogram b) ->
        ( name,
          Histogram
            { count = a.count - b.count; sum = a.sum -. b.sum;
              min = a.min; max = a.max } )
      | Gauge _, _ -> (name, v)
      | (Counter _ | Histogram _), _ -> (name, v))
    after

let find snapshot name = List.assoc_opt name snapshot
let names snapshot = List.map fst snapshot
let bindings snapshot = snapshot
let is_empty snapshot = snapshot = []

let summary_json s =
  Json.Obj
    [
      ("count", Json.Int s.count);
      ("sum", Json.Float s.sum);
      ("min", Json.Float s.min);
      ("max", Json.Float s.max);
    ]

let to_json snapshot =
  let section f =
    List.filter_map
      (fun (name, v) -> Option.map (fun j -> (name, j)) (f v))
      snapshot
  in
  Json.Obj
    [
      ( "counters",
        Json.Obj
          (section (function Counter c -> Some (Json.Int c) | _ -> None)) );
      ( "gauges",
        Json.Obj
          (section (function Gauge g -> Some (Json.Float g) | _ -> None)) );
      ( "histograms",
        Json.Obj
          (section (function
            | Histogram h -> Some (summary_json h)
            | _ -> None)) );
    ]

let pp ppf snapshot =
  List.iter
    (fun (name, v) ->
      (match v with
      | Counter c -> Format.fprintf ppf "%-40s %d" name c
      | Gauge g -> Format.fprintf ppf "%-40s %g" name g
      | Histogram h ->
        Format.fprintf ppf "%-40s count=%d sum=%g min=%g max=%g" name h.count
          h.sum h.min h.max);
      Format.pp_print_newline ppf ())
    snapshot
