type entry = {
  value : Rel.Value.t;
  fraction : float;
}

type t = {
  entries : entry list;
  covered : float;
}

(* Degree's top-k order, count descending then value ascending, is total
   over distinct values: selecting k keeps what sorting all and taking k did. *)
let of_table ~k table =
  if k < 1 then invalid_arg "Mcv.build: k < 1";
  let top = Degree.of_table ~k table in
  if top.l1 = 0. then None
  else
    let entries =
      List.map (fun (value, n) -> { value; fraction = n /. top.l1 }) (Degree.tracked top)
    in
    let covered = List.fold_left (fun acc e -> acc +. e.fraction) 0. entries in
    Some { entries; covered = Float.min 1. covered }

let build ~k values = Count_table.count values (of_table ~k)

let of_entries entries =
  let covered = List.fold_left (fun acc e -> acc +. e.fraction) 0. entries in
  { entries; covered }

(* Structural lookup for the merge path: merging groups by the canonical
   value, not by the numeric-aware [equal_sem] the estimator uses. *)
let lookup_exact t v =
  List.find_map
    (fun e -> if Rel.Value.compare e.value v = 0 then Some e.fraction else None)
    t.entries

let merge (w1, t1) (w2, t2) =
  let total = w1 +. w2 in
  if total <= 0. then { entries = []; covered = 0. }
  else begin
    (* Row-weighted fraction of [v] across both shards; a value untracked
       on one side contributes 0 there, which under-counts at most that
       shard's untracked residual — the documented merge tolerance. *)
    let weighted t w v =
      match lookup_exact t v with
      | Some f -> f *. w
      | None -> 0.
    in
    let values =
      List.sort_uniq Rel.Value.compare
        (List.map (fun e -> e.value) t1.entries
        @ List.map (fun e -> e.value) t2.entries)
    in
    let combined =
      List.map
        (fun value ->
          {
            value;
            fraction = (weighted t1 w1 value +. weighted t2 w2 value) /. total;
          })
        values
      |> List.sort (fun a b ->
             match Float.compare b.fraction a.fraction with
             | 0 -> Rel.Value.compare a.value b.value
             | c -> c)
    in
    let k = max (List.length t1.entries) (List.length t2.entries) in
    let entries = List.filteri (fun i _ -> i < k) combined in
    let covered = List.fold_left (fun acc e -> acc +. e.fraction) 0. entries in
    { entries; covered = Float.min 1. covered }
  end

let entries t = t.entries

(* Numeric-aware: a Float literal must hit the tracked Int entry of an
   int column (and vice versa), matching predicate-evaluation equality. *)
let lookup t v =
  List.find_map
    (fun e -> if Rel.Value.equal_sem e.value v then Some e.fraction else None)
    t.entries

let covered_fraction t = t.covered
let tracked_count t = List.length t.entries

let remainder_eq_selectivity t ~distinct =
  let residual = Float.max 0. (1. -. t.covered) in
  if residual <= 0. then 0.
  else
    (* A stale catalog can report distinct <= tracked even though the
       sketch covers less than the whole column; an untracked literal then
       deserves the residual mass, not a hard zero. Treat the untracked
       population as at least one value and clamp the result to [0, 1]. *)
    let untracked = max 1 (distinct - tracked_count t) in
    Float.min 1. (residual /. float_of_int untracked)

let pp ppf t =
  Format.fprintf ppf "mcv(%d values, %.1f%% covered):@." (tracked_count t)
    (100. *. t.covered);
  List.iter
    (fun e ->
      Format.fprintf ppf "  %a -> %.4f@." Rel.Value.pp e.value e.fraction)
    t.entries
