module Predicate = Query.Predicate

type state = {
  mask : int;
  size : float;
  rev_history : float list;
}

let joined profile state =
  let names = ref [] in
  for bit = Profile.table_count profile - 1 downto 0 do
    if state.mask land (1 lsl bit) <> 0 then
      names := Profile.table_name profile bit :: !names
  done;
  !names

let history state = List.rev state.rev_history

let start profile name =
  let bit = Profile.table_bit profile name in
  let rows = (Profile.table_at profile bit).Profile.rows in
  { mask = 1 lsl bit; size = rows; rev_history = [] }

(* The join predicates linking [name]'s table to the state, via the
   per-table adjacency index: O(degree) instead of a scan of the whole
   working conjunction. Ascending id order = conjunction order. *)
let eligible profile state name =
  let bit = Profile.table_bit profile name in
  let index = profile.Profile.index in
  Array.fold_right
    (fun id acc ->
      let info = index.Profile.pred_infos.(id) in
      match info.Profile.endpoints with
      | Some (a, b) ->
        let other = if a = bit then b else a in
        if state.mask land (1 lsl other) <> 0 then info.Profile.pred :: acc
        else acc
      | None -> acc)
    index.Profile.join_preds_by_table.(bit) []

let step_selectivity profile state name =
  Kernel.step_selectivity (Profile.kernel profile) ~mask:state.mask
    ~bit:(Profile.table_bit profile name)

let check_disjoint profile s1 s2 =
  let overlap = s1.mask land s2.mask in
  if overlap <> 0 then begin
    let rec first_bit b =
      if overlap land (1 lsl b) <> 0 then b else first_bit (b + 1)
    in
    invalid_arg
      (Printf.sprintf "Incremental.join_states: %s on both sides"
         (Profile.table_name profile (first_bit 0)))
  end

let joined_state s1 s2 size =
  {
    mask = s1.mask lor s2.mask;
    size;
    rev_history = size :: List.append s2.rev_history s1.rev_history;
  }

let join_states profile s1 s2 =
  check_disjoint profile s1 s2;
  joined_state s1 s2
    (Kernel.join_size (Profile.kernel profile) ~mask1:s1.mask ~mask2:s2.mask
       ~size1:s1.size ~size2:s2.size)

let extend_bit profile state name =
  let bit = Profile.table_bit profile name in
  if state.mask land (1 lsl bit) <> 0 then
    invalid_arg
      (Printf.sprintf "Incremental.extend: %s already joined"
         (Profile.normalize name));
  bit

let extended state bit size =
  {
    mask = state.mask lor (1 lsl bit);
    size;
    rev_history = size :: state.rev_history;
  }

let extend profile state name =
  let bit = extend_bit profile state name in
  extended state bit
    (Kernel.extend_size (Profile.kernel profile) ~mask:state.mask ~bit
       ~size:state.size)

let fold_order f profile order =
  match order with
  | [] -> invalid_arg "Incremental.estimate_order: empty join order"
  | first :: rest -> List.fold_left (f profile) (start profile first) rest

let estimate_order profile order = fold_order extend profile order
let final_size profile order = (estimate_order profile order).size

(* --- the list-scan reference tier ----------------------------------------

   The obviously-correct implementation the kernel is tested against:
   eligibility by scanning the whole working conjunction with List.mem
   over explicit table-name lists, grouping through
   [Selectivity.group_by_class], and no caches — every selectivity is
   recomputed from the profile's statistics. It applies the kernel's
   guard sites and cap, so the two tiers agree bit for bit even when a
   guard trips. Derivation cards are recorded here: [explain] is not hot,
   and every number a card shows is recomputed from its parts. *)

let eligible_scan_between profile left right =
  List.filter
    (fun p ->
      Predicate.is_join p
      &&
      match Predicate.tables p with
      | [ a; b ] ->
        (List.mem a left && List.mem b right)
        || (List.mem b left && List.mem a right)
      | _ -> false)
    profile.Profile.predicates

let eligible_scan profile joined name =
  eligible_scan_between profile joined [ Profile.normalize name ]

(* One equivalence-class group of a step: its predicates, their guarded
   selectivities with the statistics each comparison's CDF convolution
   read ([None] for an equality), and the guarded estimator
   combination. *)
type group = {
  preds : Predicate.t list;
  sels : float list;
  cdf_stats :
    (Stats.Selectivity_est.source * Stats.Selectivity_est.source) option list;
  combined : float;
}

let scan_groups profile preds =
  let guard = profile.Profile.guard in
  let combine = (Profile.estimator profile).Estimator.combine in
  List.map
    (fun preds ->
      let sels, cdf_stats =
        List.split
          (List.map
             (fun p ->
               let s, sources = Selectivity.join_with_sources profile p in
               (Guard.selectivity guard ~site:"Profile.join_selectivity" s,
                sources))
             preds)
      in
      {
        preds;
        sels;
        cdf_stats;
        combined =
          Guard.selectivity guard ~site:"Profile.class_selectivity"
            (combine sels);
      })
    (Selectivity.group_by_class profile preds)

let scan_selectivity groups =
  List.fold_left (fun acc g -> acc *. g.combined) 1. groups

let step_selectivity_scan profile joined name =
  let stats = profile.Profile.stats in
  stats.Profile.reference_steps <- stats.Profile.reference_steps + 1;
  scan_selectivity (scan_groups profile (eligible_scan profile joined name))

(* Degree-statistic pairs of the step's bridging equality predicates,
   oriented (already-joined side, new side) by [left_mask]. A column
   without ANALYZE-collected degree sequences contributes no pair — caps
   degrade on the empty list. *)
let step_degrees profile ~left_mask preds =
  List.filter_map
    (fun p ->
      match p with
      | Predicate.Col_cmp { left; op = Predicate.Eq; right } -> begin
        let on_left cref =
          left_mask
          land (1 lsl Profile.table_bit profile cref.Query.Cref.table)
          <> 0
        in
        let a, b = if on_left left then (left, right) else (right, left) in
        match
          ( (Profile.column_stats profile a).Stats.Col_stats.degree,
            (Profile.column_stats profile b).Stats.Col_stats.degree )
        with
        | Some da, Some db -> Some (da, db)
        | _, _ -> None
      end
      | Predicate.Col_cmp _ | Predicate.Cmp _ -> None)
    preds

(* Derivation-card label of one class group: ["eq"] for an equality
   class, the comparison's kind for a singleton comparison group. *)
let group_kind preds =
  match preds with
  | p :: _ -> begin
    match Predicate.kind p with
    | Some k -> Predicate.kind_name k
    | None -> "local"
  end
  | [] -> "eq"

(* The columns a group's predicates touch, first occurrence first, each
   with its d′ provenance. A comparison's selectivity comes from its
   columns' distributions, not their d′, so its two columns carry the
   statistics the convolution read: the left column's CDF and the right
   column's buckets. *)
let column_records profile g =
  let cdf source =
    Some ("cdf(" ^ Stats.Selectivity_est.source_name source ^ ")")
  in
  let labelled p sources =
    match p, sources with
    | Predicate.Col_cmp { left; right; _ }, Some (l, r) ->
      [ (left, cdf l); (right, cdf r) ]
    | _, _ -> List.map (fun c -> (c, None)) (Predicate.columns p)
  in
  let columns =
    List.fold_left2
      (fun acc p sources ->
        List.fold_left
          (fun acc ((c, _) as column) ->
            if List.exists (fun (c', _) -> Query.Cref.equal c c') acc then acc
            else column :: acc)
          acc (labelled p sources))
      [] g.preds g.cdf_stats
  in
  List.rev_map
    (fun (cref, cdf_label) ->
      let table = Profile.table profile cref.Query.Cref.table in
      match Query.Cref.Map.find_opt cref table.Profile.columns with
      | Some col ->
        {
          Obs.Derivation.column = Query.Cref.to_string cref;
          base_distinct = col.Profile.base_distinct;
          join_distinct = Profile.join_card profile cref;
          source = Option.value cdf_label ~default:col.Profile.d_source;
        }
      | None ->
        (* Never mentioned in predicates: [join_card] falls back to the
           table's row count. *)
        {
          Obs.Derivation.column = Query.Cref.to_string cref;
          base_distinct = table.Profile.base_rows;
          join_distinct = Profile.join_card profile cref;
          source = Option.value cdf_label ~default:"catalog";
        })
    columns

let class_record profile ~rule g =
  let root =
    match Predicate.columns (List.hd g.preds) with
    | col :: _ -> Eqclass.find profile.Profile.classes col
    | [] -> assert false
  in
  {
    Obs.Derivation.class_root = Query.Cref.to_string root;
    kind = group_kind g.preds;
    rule;
    inputs = List.map2 (fun p s -> (Predicate.to_string p, s)) g.preds g.sels;
    combined = g.combined;
    columns = column_records profile g;
  }

(* One reference-tier step joining [right_rows] rows to an intermediate
   result of [left_rows] rows over [left_mask], through the bridging
   [preds]: size = left × right × ∏ S_class, capped when the estimator
   caps a predicate-connected step (a cartesian step has no equality
   class to justify a bound), guarded against the cartesian upper bound —
   the kernel's exact sequence. Records the step into [sink] when given. *)
let scan_step ?sink profile ~site ~index ~table ~left_mask ~left_rows
    ~right_rows preds =
  let stats = profile.Profile.stats in
  stats.Profile.reference_steps <- stats.Profile.reference_steps + 1;
  let est = Profile.estimator profile in
  let groups = scan_groups profile preds in
  let raw = left_rows *. right_rows *. scan_selectivity groups in
  let cap =
    match est.Estimator.cap with
    | Some cap when preds <> [] ->
      Some
        (cap
           { Estimator.left_rows; right_rows;
             degrees = step_degrees profile ~left_mask preds })
    | Some _ | None -> None
  in
  let capped =
    match cap with Some (bound, _) -> Float.min raw bound | None -> raw
  in
  let size =
    Guard.cardinality profile.Profile.guard ~site
      ~upper:(left_rows *. right_rows) capped
  in
  Option.iter
    (fun sink ->
      Obs.Derivation.record_step sink
        {
          Obs.Derivation.index;
          table;
          left_rows;
          right_rows;
          classes =
            List.map (class_record profile ~rule:est.Estimator.id) groups;
          cap = Option.map fst cap;
          cap_source = Option.map snd cap;
          output = size;
        })
    sink;
  size

let extend_with ?sink profile state name =
  let bit = extend_bit profile state name in
  let table = Profile.table_at profile bit in
  extended state bit
    (scan_step ?sink profile ~site:"Incremental.extend"
       ~index:(List.length state.rev_history) ~table:table.Profile.name
       ~left_mask:state.mask ~left_rows:state.size
       ~right_rows:table.Profile.rows
       (eligible_scan profile (joined profile state) name))

let extend_scan profile state name = extend_with profile state name

let join_states_scan profile s1 s2 =
  check_disjoint profile s1 s2;
  joined_state s1 s2
    (scan_step profile ~site:"Incremental.join_states"
       ~index:(List.length s1.rev_history + List.length s2.rev_history)
       ~table:"⋈" ~left_mask:s1.mask ~left_rows:s1.size ~right_rows:s2.size
       (eligible_scan_between profile (joined profile s1) (joined profile s2)))

let estimate_order_scan profile order = fold_order extend_scan profile order

(* The card opens with the profile's staleness notes, so it always
   discloses which statistics were not fresh. Steps are recorded as they
   complete: a guard trip under [Strict] leaves the partial card. *)
let derive profile sink order =
  List.iter (Obs.Derivation.annotate sink) profile.Profile.annotations;
  (match order with
  | first :: _ ->
    let table = Profile.table profile first in
    Obs.Derivation.set_base sink table.Profile.name table.Profile.rows
  | [] -> ());
  fold_order (extend_with ~sink) profile order
