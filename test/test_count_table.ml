(* The count table behind ANALYZE: every statistic it feeds is pinned bit
   for bit against the per-value [Hashtbl] pass it replaced, and its
   reuse across columns against allocation, retention and domains. *)

module V = Rel.Value

(* --- the oracle: the pass [Col_stats.of_values] ran before the table --- *)

(* [Mcv.build] before the table, verbatim but for its result: the entries
   and covered fraction that [Mcv.t]'s private constructor got. *)
let oracle_mcv ~k values =
  if k < 1 then invalid_arg "Mcv.build: k < 1";
  let counts = Hashtbl.create 1024 in
  let non_null = ref 0 in
  Array.iter
    (fun v ->
      if not (Rel.Value.is_null v) then begin
        incr non_null;
        Hashtbl.replace counts v
          (1 + Option.value (Hashtbl.find_opt counts v) ~default:0)
      end)
    values;
  if !non_null = 0 then None
  else begin
    let total = float_of_int !non_null in
    let all =
      Hashtbl.fold (fun v n acc -> (v, n) :: acc) counts []
      |> List.sort (fun (va, na) (vb, nb) ->
             match Int.compare nb na with
             | 0 -> Rel.Value.compare va vb
             | c -> c)
    in
    let top = List.filteri (fun i _ -> i < k) all in
    let entries =
      List.map
        (fun (value, n) ->
          { Stats.Mcv.value; fraction = float_of_int n /. total })
        top
    in
    let covered =
      List.fold_left (fun acc e -> acc +. e.Stats.Mcv.fraction) 0. entries
    in
    Some (entries, Float.min 1. covered)
  end

let numeric_values values =
  let out = Rel.Vec.create () in
  Array.iter
    (fun v ->
      match v with
      | Rel.Value.Int x -> Rel.Vec.push out (float_of_int x)
      | Rel.Value.Float x -> Rel.Vec.push out x
      | Rel.Value.Null | Rel.Value.String _ | Rel.Value.Bool _ -> ())
    values;
  Rel.Vec.to_array out

(* [Col_stats.of_values] before the table, verbatim but for the MCVs,
   returned beside the statistics. *)
let oracle ?histogram ?(histogram_buckets = 32) ?mcv
    ?(degree_k = Stats.Degree.default_k) values =
  let seen = Hashtbl.create 1024 in
  let nulls = ref 0 in
  let lo = ref None and hi = ref None in
  Array.iter
    (fun v ->
      if Rel.Value.is_null v then incr nulls
      else begin
        (match Hashtbl.find_opt seen v with
        | Some c -> Hashtbl.replace seen v (c + 1)
        | None -> Hashtbl.add seen v 1);
        (match !lo with
        | None -> lo := Some v
        | Some m -> if Rel.Value.compare v m < 0 then lo := Some v);
        match !hi with
        | None -> hi := Some v
        | Some m -> if Rel.Value.compare v m > 0 then hi := Some v
      end)
    values;
  let histogram =
    match histogram with
    | None -> None
    | Some kind ->
      let nums = numeric_values values in
      if Array.length nums = 0 then None
      else Stats.Histogram.build kind ~buckets:histogram_buckets nums
  in
  let mcv = Option.bind mcv (fun k -> oracle_mcv ~k values) in
  let degree =
    Some
      (Stats.Degree.of_counts ~k:degree_k
         (Hashtbl.fold (fun v c acc -> (v, c) :: acc) seen []))
  in
  ( {
      Stats.Col_stats.distinct = Hashtbl.length seen;
      nulls = !nulls;
      min_value = !lo;
      max_value = !hi;
      histogram;
      mcv = None;
      distinct_sketch = Some (Stats.Hll.of_values values);
      degree;
    },
    mcv )

(* --- field-by-field bit comparison --- *)

let bits = Int64.bits_of_float
let same_float x y = Int64.equal (bits x) (bits y)

let same_value a b =
  V.compare a b = 0
  && match a, b with V.Float x, V.Float y -> same_float x y | _ -> true

let same_opt same a b =
  match a, b with
  | None, None -> true
  | Some a, Some b -> same a b
  | Some _, None | None, Some _ -> false

let same_degree (a : Stats.Degree.t) (b : Stats.Degree.t) =
  same_float a.l1 b.l1 && same_float a.l2_sq b.l2_sq
  && same_float a.linf b.linf && a.k = b.k && a.complete = b.complete
  && Array.length a.top = Array.length b.top
  && Array.for_all2
       (fun (v, d) (w, e) -> same_value v w && same_float d e)
       a.top b.top

let same_entries a b =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Stats.Mcv.entry) (y : Stats.Mcv.entry) ->
         same_value x.value y.value && same_float x.fraction y.fraction)
       a b

let same_mcv got want =
  same_opt
    (fun m (entries, covered) ->
      same_entries (Stats.Mcv.entries m) entries
      && same_float (Stats.Mcv.covered_fraction m) covered)
    got want

(* Histograms are built from the same numeric values either way; their
   floats compare by their bits in a marshalled copy. *)
let same_histogram a b =
  Marshal.to_string a [ Marshal.No_sharing ]
  = Marshal.to_string b [ Marshal.No_sharing ]

let same_stats (a : Stats.Col_stats.t) (b : Stats.Col_stats.t) =
  a.distinct = b.distinct && a.nulls = b.nulls
  && same_opt same_value a.min_value b.min_value
  && same_opt same_value a.max_value b.max_value
  && same_opt same_histogram a.histogram b.histogram
  && same_opt Stats.Hll.equal a.distinct_sketch b.distinct_sketch
  && same_opt same_degree a.degree b.degree
  && same_opt
       (fun x y -> same_entries (Stats.Mcv.entries x) (Stats.Mcv.entries y)
         && same_float (Stats.Mcv.covered_fraction x)
              (Stats.Mcv.covered_fraction y))
       a.mcv b.mcv

(* --- the bit-identity property --- *)

let nan_a = Int64.float_of_bits 0x7ff8000000000001L
let nan_b = Int64.float_of_bits 0xfff8000000000002L

(* Values that collide under a weak hash or that [Value.equal] puts
   together with different bits: signed zeros, NaN payloads, the int
   extremes, ints strided by 2^16 and 2^20, and the other types. *)
let gen_value =
  QCheck2.Gen.(
    oneof
      [
        return V.Null;
        map (fun f -> V.Float f) (oneofl [ 0.; -0.; nan_a; nan_b; nan; 1.5; -2. ]);
        map (fun i -> V.Int i) (oneofl [ min_int; max_int; min_int + 1; -1 ]);
        map (fun i -> V.Int (i lsl 16)) (int_range (-40) 40);
        map (fun i -> V.Int (i lsl 20)) (int_range (-40) 40);
        map (fun i -> V.Int i) (int_range (-5) 60);
        map (fun s -> V.String s) (oneofl [ ""; "a"; "b"; "ab"; "ba" ]);
        map (fun b -> V.Bool b) bool;
      ])

let gen_column =
  QCheck2.Gen.(
    frequency
      [
        (8, array_size (int_range 0 300) gen_value);
        (1, map (fun n -> Array.make n V.Null) (int_range 0 40));
        (1, return [||]);
      ])

let print_value = function
  | V.Float f -> Printf.sprintf "Float %h" f
  | v -> V.to_string v

let print_column column =
  "[" ^ String.concat "; " (Array.to_list (Array.map print_value column)) ^ "]"

let prop_bit_identical =
  QCheck2.Test.make ~count:1000
    ~name:"col_stats: the count table = the Hashtbl pass, bit for bit"
    ~print:(fun (column, (hist, mcv, degree_k)) ->
      Printf.sprintf "hist=%b mcv=%s degree_k=%d %s" hist
        (match mcv with None -> "-" | Some k -> string_of_int k)
        degree_k (print_column column))
    QCheck2.Gen.(
      pair gen_column
        (triple bool (opt (int_range 1 8)) (oneofl [ 0; 1; 2; 5; 32 ])))
    (fun (column, (hist, mcv, degree_k)) ->
      let histogram = if hist then Some Stats.Histogram.Equi_depth else None in
      let got = Stats.Col_stats.of_values ?histogram ?mcv ~degree_k column in
      let want, want_mcv = oracle ?histogram ?mcv ~degree_k column in
      same_stats { got with mcv = None } want
      && same_mcv got.mcv want_mcv
      && same_opt same_degree (Some (Stats.Degree.of_values ~k:degree_k column))
           want.degree)

let prop_mcv_selection_is_sort =
  QCheck2.Test.make ~count:1000 ~name:"mcv: top-k selection = sort then take"
    ~print:(fun (k, column) -> Printf.sprintf "k=%d %s" k (print_column column))
    QCheck2.Gen.(pair (int_range 1 40) gen_column)
    (fun (k, column) ->
      same_mcv (Stats.Mcv.build ~k column) (oracle_mcv ~k column))

(* [Hashtbl.replace] kept the last of equal keys, so the degree top-k and
   the MCV report -0.0 here, while the minimum stays the first 0.0. A
   table that kept each key's first occurrence passes every other test. *)
let test_last_occurrence_reported () =
  let s = Stats.Col_stats.of_values ~mcv:1 [| V.Float 0.; V.Float (-0.) |] in
  let top_value =
    match (Option.get s.degree).top with
    | [| (V.Float f, 2.) |] -> f
    | _ -> Alcotest.fail "one entry of degree 2 expected"
  in
  Alcotest.(check bool) "degree top-k reports -0.0" true
    (Float.sign_bit top_value);
  (match Stats.Mcv.entries (Option.get s.mcv) with
  | [ { value = V.Float f; _ } ] ->
    Alcotest.(check bool) "MCV reports -0.0" true (Float.sign_bit f)
  | _ -> Alcotest.fail "one MCV entry expected");
  match s.min_value with
  | Some (V.Float f) ->
    Alcotest.(check bool) "the minimum is the first 0.0" false
      (Float.sign_bit f)
  | _ -> Alcotest.fail "a float minimum expected"

let suite =
  [
    Alcotest.test_case "col_stats: last of equal keys reported" `Quick
      test_last_occurrence_reported;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_bit_identical; prop_mcv_selection_is_sort ]

(* --- allocation and retention --- *)

(* Minor words of [f ()] net of the measurement's own, and the words it
   put straight into the major heap. *)
let words f =
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  let _, promoted0, major0 = Gc.counters () in
  let w2 = Gc.minor_words () in
  let r = f () in
  let w3 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  ignore (Sys.opaque_identity r);
  (w3 -. w2 -. (w1 -. w0), major1 -. major0 -. (promoted1 -. promoted0))

(* On a warmed-up domain a column costs the same words whatever its row
   count: the count table is the domain's, and counting allocates nothing
   per value. The only array over 256 words, which goes straight to the
   major heap, is the sketch's 4,096 one-byte registers. *)
let test_words_independent_of_rows () =
  let column rows = Array.init rows (fun i -> V.Int (i mod 1000)) in
  let small = column 2_000 and large = column 20_000 in
  let analyze col () = Stats.Col_stats.of_values col in
  ignore (words (analyze large));
  ignore (words (analyze small));
  let small_words, _ = words (analyze small) in
  let large_words, large_direct = words (analyze large) in
  (* 4,096 bytes, the string's padding word and its header *)
  let registers = float_of_int ((4096 / (Sys.word_size / 8)) + 2) in
  match Sys.backend_type with
  | Sys.Native ->
    if Float.abs (large_words -. small_words) > 64. then
      Alcotest.failf "2,000 rows: %.0f minor words; 20,000 rows: %.0f"
        small_words large_words;
    if large_direct > registers then
      Alcotest.failf "%.0f words straight into the major heap (registers: %.0f)"
        large_direct registers
  | Sys.Bytecode | Sys.Other _ -> ()

(* The domain's table is cleared after each column: it keeps no value of
   the column it counted alive. *)
let[@inline never] analyze_fresh_strings weak =
  let column =
    Array.init 1000 (fun i -> V.String (String.make 3 'k' ^ string_of_int i))
  in
  Weak.set weak 0 (Some column.(500));
  ignore (Sys.opaque_identity (Stats.Col_stats.of_values ~mcv:4 column))

let test_table_keeps_nothing_alive () =
  let weak = Weak.create 1 in
  analyze_fresh_strings weak;
  Gc.full_major ();
  Alcotest.(check bool) "a counted string is collected" false
    (Weak.check weak 0)

(* Fifty columns of every size class, kept and not kept alike, analyzed by
   two domains at once and by one in turn. *)
let test_domains_agree () =
  let rng = Random.State.make [| 42 |] in
  let columns =
    List.init 50 (fun i ->
        let rows = if i mod 17 = 3 then 40_000 else Random.State.int rng 3_000 in
        let distinct = 1 + Random.State.int rng (max 1 rows) in
        Array.init rows (fun _ ->
            match Random.State.int rng 10 with
            | 0 -> V.Null
            | 1 -> V.Float (float_of_int (Random.State.int rng 50) -. 25.)
            | 2 -> V.String (string_of_int (Random.State.int rng 100))
            | _ -> V.Int (Random.State.int rng distinct)))
  in
  let analyze () = List.map (Stats.Col_stats.of_values ~mcv:3) columns in
  let sequential = analyze () in
  let other = Domain.spawn analyze in
  let mine = analyze () in
  let theirs = Domain.join other in
  List.iteri
    (fun i want ->
      Alcotest.(check bool) (Printf.sprintf "column %d, calling domain" i) true
        (same_stats (List.nth mine i) want);
      Alcotest.(check bool) (Printf.sprintf "column %d, second domain" i) true
        (same_stats (List.nth theirs i) want))
    sequential

let alloc_suite =
  [
    Alcotest.test_case "words per column independent of rows" `Quick
      test_words_independent_of_rows;
    Alcotest.test_case "the table keeps no value alive" `Quick
      test_table_keeps_nothing_alive;
    Alcotest.test_case "two domains = one, bit for bit" `Quick
      test_domains_agree;
  ]
