type flags = { closure : bool; local_aware : bool; single_table : bool }

(* What a per-step cap gets to see: the effective input sizes plus, for
   every bridging equality predicate whose endpoint columns both carry
   ANALYZE-collected degree sequences, the pair of those statistics —
   (already-joined side, newly-joined side). Comparison predicates and
   columns without degree statistics contribute no pair. *)
type step_input = {
  left_rows : float;
  right_rows : float;
  degrees : (Stats.Degree.t * Stats.Degree.t) list;
}

type t = {
  id : string;
  label : string;
  summary : string;
  combine : float list -> float;
  cap : (step_input -> float * string) option;
  flags : flags;
}

let id t = t.id
let label t = t.label
let equal a b = String.equal a.id b.id

(* The three rules of the paper (Section 7). The compiled kernel's
   monomorphic arms replicate these fold shapes exactly. *)

let m =
  {
    id = "m";
    label = "M";
    summary = "Rule M: multiply every eligible join selectivity (Selinger)";
    combine = (fun sels -> List.fold_left ( *. ) 1. sels);
    cap = None;
    (* Canonically with PTC: panels compare combining rules under equal
       (closed) predicate sets. Plain SM is [Config.sm ~ptc:false]. *)
    flags = { closure = true; local_aware = false; single_table = false };
  }

let ss =
  {
    id = "ss";
    label = "SS";
    summary = "Rule SS: keep only the smallest selectivity per class";
    combine = (fun sels -> List.fold_left Float.min 1. sels);
    cap = None;
    flags = { closure = true; local_aware = false; single_table = false };
  }

let ls =
  {
    id = "ls";
    label = "LS";
    summary = "Rule LS: keep only the largest selectivity per class";
    combine =
      (fun sels ->
        match sels with
        | [] -> 1.
        | s :: rest -> List.fold_left Float.max s rest);
    cap = None;
    flags = { closure = true; local_aware = true; single_table = true };
  }

let min_rows s = Float.min s.left_rows s.right_rows

let pess =
  {
    id = "pess";
    label = "PESS";
    summary =
      "Pessimistic degree-1 bound: cap each predicate-connected step at \
       min(|R1|', |R2|')";
    (* No per-class selectivity reduction: the bound comes entirely from
       the cap, so classes combine to 1 and a step's raw size is the
       cartesian product before capping. *)
    combine = (fun _ -> 1.);
    cap = Some (fun s -> (min_rows s, "min-rows (degree-1 Lp-norm bound)"));
    flags = { closure = true; local_aware = true; single_table = true };
  }

(* --- the degree-statistics family ---------------------------------------

   Bound-style estimators over the per-column degree sequences ANALYZE
   collects ([Stats.Degree] via [Col_stats.degree]). Like PESS they carry
   no per-class selectivity reduction — the whole estimate is the cap.
   The compiled kernel runs each of them on a fixed arm of its own
   ([Kernel.Lp2], [Kernel.Degseq], [Kernel.Ent]) over per-predicate terms
   computed once, and must fold exactly as these closures do; the
   closures run on the reference tier, whose derivation cards carry
   their labels. All caps fold [Float.min] across the step's bridging
   predicates (a conjunction can only shrink the output) and degrade to
   PESS's min-rows when no degree statistics are available. The degree
   statistics are the {e base tables}': exact for the first (two-way)
   step, a heuristic for later steps whose left input is an
   intermediate. Each cap returns the label of the [Float.min] term that
   set its bound; a later term takes over only when strictly tighter, so
   on a tie the first term's label wins. *)

let no_degrees_label = "min-rows (no degree statistics collected)"

(* The caps fold with top-level loops, not [List.fold_left] over a
   closure or a tuple accumulator: a cap runs on every capped reference
   step, and a closure or a tuple per term would add to each step's
   allocation. *)

(* [Float.min] of [bound] and [term a b] over the degree pairs. *)
let rec min_over term bound = function
  | [] -> bound
  | (a, b) :: rest -> min_over term (Float.min bound (term a b)) rest

(* A cap under one label: the min over the degree pairs, seeded at
   infinity, or min-rows when there are no pairs. *)
let fold_edges s label term =
  match s.degrees with
  | [] -> (min_rows s, no_degrees_label)
  | edges -> (min_over term Float.infinity edges, label)

(* LP2 seeds with min-rows; each pair's L2(a)·L2(b) takes the label over
   only when strictly tighter. *)
let rec lp2_over bound label = function
  | [] -> (bound, label)
  | (a, b) :: rest ->
    let l2 = Stats.Degree.l2 a *. Stats.Degree.l2 b in
    lp2_over (Float.min bound l2)
      (if l2 < bound then "degree-sequence L2 norms (ANALYZE)" else label)
      rest

let lp2 =
  {
    id = "lp2";
    label = "LP2";
    summary =
      "AGM/Lp-norm bound: cap each step at min(|R1|', |R2|', L2(a)·L2(b)) \
       from the join columns' degree-sequence L2 norms";
    combine = (fun _ -> 1.);
    cap =
      Some
        (fun s ->
          lp2_over (min_rows s)
            (if s.degrees = [] then no_degrees_label
             else "min-rows (tighter than the degree-sequence L2 bound)")
            s.degrees);
    flags = { closure = true; local_aware = true; single_table = true };
  }

let degseq =
  {
    id = "degseq";
    label = "DEGSEQ";
    summary =
      "Degree-sequence two-approximation: pairwise product of the sorted \
       top-k degrees plus a capped tail (Instance Optimal Join Size \
       Estimation)";
    combine = (fun _ -> 1.);
    cap =
      Some
        (fun s ->
          fold_edges s "top-k degree sequences (ANALYZE)"
            Stats.Degree.join_bound);
    flags = { closure = true; local_aware = true; single_table = true };
  }

let ent =
  {
    id = "ent";
    label = "ENT";
    summary =
      "Entropy-style max-degree bound: cap each step at \
       min(|R1|'·L∞(b), |R2|'·L∞(a)) — the polymatroid bound's two-way \
       degenerate form";
    combine = (fun _ -> 1.);
    (* Folded from infinity, not from min-rows: L∞ ≥ 1 on any non-empty
       column makes |R|·L∞ ≥ |R|, so a min-rows seed would swallow the
       entropic term and collapse ENT into PESS. Min-rows applies only as
       the no-statistics degradation. *)
    cap =
      Some
        (fun s ->
          fold_edges s "degree-sequence L∞ norms (ANALYZE)" (fun a b ->
              Float.min
                (s.left_rows *. Stats.Degree.linf b)
                (s.right_rows *. Stats.Degree.linf a)));
    flags = { closure = true; local_aware = true; single_table = true };
  }

let registered : t list ref = ref [ m; ss; ls; pess; lp2; degseq; ent ]
let registry () = !registered

let register e =
  if List.exists (fun x -> String.equal x.id e.id) !registered then
    invalid_arg (Printf.sprintf "Estimator.register: duplicate id %S" e.id);
  registered := !registered @ [ e ]

let ids () = List.map (fun e -> e.id) (registry ())

let find name =
  let needle = String.lowercase_ascii (String.trim name) in
  List.find_opt
    (fun e ->
      String.equal e.id needle
      || String.equal (String.lowercase_ascii e.label) needle)
    (registry ())

let of_string name =
  match find name with
  | Some e -> Ok e
  | None ->
    let candidates = ids () in
    Error
      (Printf.sprintf "unknown estimator %S, expected one of: %s%s" name
         (String.concat ", " candidates)
         (Catalog.Suggest.hint ~candidates name))

let of_string_exn name =
  match of_string name with Ok e -> e | Error msg -> invalid_arg msg
