module Cref = Query.Cref
module Predicate = Query.Predicate

type column_profile = {
  cref : Cref.t;
  base_distinct : float;
  local_distinct : float;
  join_distinct : float;
  d_source : string;
  col_stats : Stats.Col_stats.t;
}

type table_profile = {
  name : string;
  source : string;
  base_rows : float;
  rows : float;
  local_selectivity : float;
  columns : column_profile Cref.Map.t;
}

type pred_info = {
  pred : Predicate.t;
  id : int;
  root : Cref.t;
  endpoints : (int * int) option;
}

type cache_stats = {
  mutable sel_hits : int;
  mutable sel_misses : int;
  mutable reference_steps : int;
}

type index = {
  table_names : string array;
  table_bits : (string, int) Hashtbl.t;
  profiles : table_profile array;
  pred_infos : pred_info array;
  join_pred_ids : int array;
  join_preds_by_table : int array array;
  local_preds_by_table : Predicate.t list array;
}

type t = {
  config : Config.t;
  predicates : Predicate.t list;
  classes : Eqclass.t;
  index : index;
  sel_cache : float array;
  stats : cache_stats;
  guard : Guard.t;
  validation : Catalog.Validate.issue list;
  annotations : string list;
  mutable kernel : Kernel.t option;
}

(* Hot-path friendly: names are almost always lowercase already, so avoid
   allocating a copy unless an uppercase letter is present. *)
let normalize s =
  let rec lowercase i =
    i >= String.length s
    || (match s.[i] with 'A' .. 'Z' -> false | _ -> lowercase (i + 1))
  in
  if lowercase 0 then s else String.lowercase_ascii s

let ceil_pos x = if x <= 0. then 0. else Float.ceil x

let stats_of guard db_table column =
  match Catalog.Table.col_stats db_table column with
  | Some s -> s
  | None ->
    (* Degrade to the key-column worst case; counted so missing statistics
       are visible in the guard report rather than silent. *)
    Guard.note_fallback guard;
    Stats.Col_stats.trivial ~distinct:(Catalog.Table.distinct db_table column)

(* Columns of [table] mentioned in the working predicates. *)
let predicate_columns predicates table =
  List.fold_left
    (fun acc p ->
      List.fold_left
        (fun acc c ->
          if String.equal c.Cref.table table then Cref.Set.add c acc else acc)
        acc (Predicate.columns p))
    Cref.Set.empty predicates

(* Constant predicates of the working set, per column of [table]. *)
let const_preds_on predicates col =
  List.filter_map
    (fun p ->
      match p with
      | Predicate.Cmp { col = c; op; const } when Cref.equal c col ->
        Some (op, const)
      | Predicate.Cmp _ | Predicate.Col_cmp _ -> None)
    predicates

(* Intra-table column equalities of [table], as column pairs. *)
let intra_table_equalities predicates table =
  List.filter_map
    (fun p ->
      match p with
      | Predicate.Col_cmp { left; op = Predicate.Eq; right }
        when Cref.same_table left right
             && String.equal left.Cref.table table ->
        Some (left, right)
      | Predicate.Col_cmp _ | Predicate.Cmp _ -> None)
    predicates

(* Steps 3-4: fold the constant local predicates of one table into its row
   count and column cardinalities. *)
let local_effects guard db_table predicates columns =
  let base_rows = float_of_int db_table.Catalog.Table.row_count in
  let per_column =
    List.map
      (fun col ->
        let stats = stats_of guard db_table col.Cref.column in
        let preds = const_preds_on predicates col in
        let combined = Local_pred.combine stats preds in
        let combined =
          { combined with
            Local_pred.selectivity =
              Guard.selectivity guard ~site:"Profile.local_pred"
                combined.Local_pred.selectivity }
        in
        (col, stats, combined))
      (Cref.Set.elements columns)
  in
  let selectivity =
    List.fold_left
      (fun acc (_, _, combined) -> acc *. combined.Local_pred.selectivity)
      1. per_column
  in
  let rows =
    Guard.cardinality guard ~site:"Profile.local_rows"
      ~upper:(Float.max 0. base_rows)
      (base_rows *. selectivity)
  in
  let column_profiles =
    List.fold_left
      (fun acc (col, stats, combined) ->
        let base_distinct = float_of_int stats.Stats.Col_stats.distinct in
        let direct () =
          (* Direct effect on the predicated column itself; never more
             than the surviving rows. *)
          Float.min (Local_pred.reduced_distinct stats combined) rows
        in
        let labelled kind =
          match combined.Local_pred.source with
          | Some source ->
            kind ^ "(" ^ Stats.Selectivity_est.source_name source ^ ")"
          | None -> kind
        in
        (* d′ and the derivation card's label for what shaped it, decided
           by one match. *)
        let local_distinct, d_source =
          match combined.Local_pred.restriction with
          | Local_pred.Unrestricted ->
            (* Thinning caused by other columns' predicates (Section 5's
               urn argument). *)
            if rows >= base_rows then (base_distinct, "base")
            else
              ( Stats.Urn.expected_distinct ~urns:base_distinct ~balls:rows,
                "urn" )
          | Local_pred.Equality _ -> (direct (), labelled "equality")
          | Local_pred.Range _ when Option.is_none combined.Local_pred.source
            ->
            (direct (), "ne") (* only <> predicates restrict this column *)
          | Local_pred.Range _ -> (direct (), labelled "range")
          | Local_pred.Contradiction -> (direct (), "contradiction")
        in
        let local_distinct =
          (* d′ ∈ [1, d] only when the table and column are nonempty;
             degenerate inputs legitimately drive d′ to 0. *)
          if rows >= 1. && base_distinct >= 1. then
            Guard.distinct guard ~site:"Profile.local_distinct"
              ~d:base_distinct local_distinct
          else
            Guard.cardinality guard ~site:"Profile.local_distinct"
              ~upper:(Float.max 0. base_distinct)
              local_distinct
        in
        Cref.Map.add col
          { cref = col; base_distinct; local_distinct;
            join_distinct = local_distinct;
            d_source; col_stats = stats }
          acc)
      Cref.Map.empty per_column
  in
  (base_rows, rows, selectivity, column_profiles)

(* Step 5, Section 6: single-table j-equivalent columns. Returns the
   adjusted row count and column map. *)
let single_table_effects guard classes rows columns =
  (* Group this table's predicate columns by equivalence class. *)
  let by_class = Hashtbl.create 8 in
  Cref.Map.iter
    (fun col profile ->
      let root = Eqclass.find classes col in
      let existing =
        Option.value (Hashtbl.find_opt by_class root) ~default:[]
      in
      Hashtbl.replace by_class root (profile :: existing))
    columns;
  Hashtbl.fold
    (fun _root members (rows, columns) ->
      match members with
      | [] | [ _ ] -> (rows, columns)
      | _ :: _ :: _ ->
        let sorted =
          List.sort
            (fun a b -> Float.compare a.local_distinct b.local_distinct)
            members
        in
        let smallest = List.hd sorted in
        let larger = List.tl sorted in
        let divisor =
          List.fold_left (fun acc c -> acc *. c.local_distinct) 1. larger
        in
        let rows' =
          if divisor <= 0. then 0. else ceil_pos (rows /. divisor)
        in
        let rows' =
          Guard.cardinality guard ~site:"Profile.single_table_rows"
            ~upper:(ceil_pos rows) rows'
        in
        let rep_card =
          ceil_pos
            (Stats.Urn.expected_distinct ~urns:smallest.local_distinct
               ~balls:rows')
        in
        let rep_card =
          Guard.cardinality guard ~site:"Profile.single_table_rep_card"
            ~upper:(ceil_pos smallest.local_distinct)
            rep_card
        in
        let columns =
          List.fold_left
            (fun acc member ->
              Cref.Map.add member.cref
                { member with
                  join_distinct = rep_card;
                  d_source = "single-table(" ^ member.d_source ^ ")" }
                acc)
            columns sorted
        in
        (rows', columns))
    by_class (rows, columns)

(* Classic Selinger handling of intra-table equalities, used when the
   Section 6 treatment is switched off: each predicate contributes an
   independent 1/max(d1,d2) factor to the row count. *)
let selinger_intra_table_effects predicates table_name rows columns =
  List.fold_left
    (fun rows (left, right) ->
      let card c =
        match Cref.Map.find_opt c columns with
        | Some p -> p.base_distinct
        | None -> 1.
      in
      let m = Float.max (card left) (card right) in
      if m <= 0. then 0. else rows /. m)
    rows
    (intra_table_equalities predicates table_name)

(* Audit one catalog table under the configured strictness before its
   numbers enter any formula. Only tables the query references are
   audited, so validation cost scales with the query, not the catalog. *)
let validated_table config guard note_issues db source =
  let db_table = Catalog.Db.find_exn db source in
  match config.Config.strictness with
  | Config.Strict -> begin
    match Catalog.Validate.check_table db_table with
    | [] -> db_table
    | issue :: _ -> Els_error.raise_ (Els_error.of_issue issue)
  end
  | Config.Repair ->
    let repaired, issues = Catalog.Validate.repair_table db_table in
    let stats = Guard.stats guard in
    List.iter
      (fun _ ->
        stats.Guard.violations <- stats.Guard.violations + 1;
        stats.Guard.repairs <- stats.Guard.repairs + 1)
      issues;
    note_issues issues;
    repaired
  | Config.Trap ->
    let issues = Catalog.Validate.check_table db_table in
    let stats = Guard.stats guard in
    List.iter
      (fun _ -> stats.Guard.violations <- stats.Guard.violations + 1)
      issues;
    note_issues issues;
    db_table

let build_table config guard predicates classes db_table query_table ~source =
  let columns = predicate_columns predicates query_table in
  let base_rows, rows, _selectivity, column_profiles =
    local_effects guard db_table predicates columns
  in
  let rows, column_profiles =
    if config.Config.single_table then
      single_table_effects guard classes rows column_profiles
    else
      ( selinger_intra_table_effects predicates query_table rows
          column_profiles,
        column_profiles )
  in
  let local_selectivity = if base_rows <= 0. then 0. else rows /. base_rows in
  {
    name = query_table;
    source;
    base_rows;
    rows;
    local_selectivity;
    columns = column_profiles;
  }

(* Canonical table -> bit mapping (FROM order) plus per-table predicate
   indexes, all resolved once per profile: predicate equivalence-class
   roots, the bit pair of each join predicate's endpoints, and each
   table's pushed-down local predicates. *)
let build_index classes tables working =
  let n = List.length tables in
  if n > 62 then
    Els_error.raise_
      (Els_error.Invalid_query
         {
           detail =
             Printf.sprintf
               "the query joins %d tables; at most 62 fit the profile's \
                bitset index"
               n;
         });
  let table_names = Array.of_list (List.map fst tables) in
  let profiles = Array.of_list (List.map snd tables) in
  let table_bits = Hashtbl.create (2 * n) in
  Array.iteri (fun bit name -> Hashtbl.replace table_bits name bit) table_names;
  let bit_of name = Hashtbl.find table_bits name in
  let pred_infos =
    Array.of_list
      (List.mapi
         (fun id p ->
           let root =
             match Predicate.columns p with
             | col :: _ -> Eqclass.find classes col
             | [] -> assert false
           in
           let endpoints =
             if Predicate.is_join p then
               match Predicate.tables p with
               | [ a; b ] -> Some (bit_of a, bit_of b)
               | _ -> None
             else None
           in
           { pred = p; id; root; endpoints })
         working)
  in
  let join_rev = ref [] in
  let by_table = Array.make n [] in
  let local_rev = Array.make n [] in
  Array.iter
    (fun info ->
      match info.endpoints with
      | Some (a, b) ->
        join_rev := info.id :: !join_rev;
        by_table.(a) <- info.id :: by_table.(a);
        if b <> a then by_table.(b) <- info.id :: by_table.(b)
      | None -> begin
        match Predicate.tables info.pred with
        | [ t ] -> local_rev.(bit_of t) <- info.pred :: local_rev.(bit_of t)
        | _ -> ()
      end)
    pred_infos;
  {
    table_names;
    table_bits;
    profiles;
    pred_infos;
    join_pred_ids = Array.of_list (List.rev !join_rev);
    join_preds_by_table =
      Array.map (fun ids -> Array.of_list (List.rev ids)) by_table;
    local_preds_by_table = Array.map List.rev local_rev;
  }

let build ?trace ?(annotations = []) config db query =
  Obs.Trace.with_span trace "profile" @@ fun () ->
  let deduped = Predicate.Set.elements (Predicate.Set.of_list query.Query.predicates) in
  let working =
    if config.Config.closure then (Closure.compute deduped).Closure.predicates
    else deduped
  in
  let classes = Eqclass.of_predicates working in
  let guard = Guard.create config.Config.strictness in
  let issues = ref [] in
  let note_issues found = issues := List.rev_append found !issues in
  (* Validation is its own phase: every referenced table is audited before
     any of its numbers enter a formula. *)
  let validated =
    Obs.Trace.with_span trace "validate" @@ fun () ->
    let tables =
      List.map
        (fun name ->
          let source = Query.source query name in
          (name, source, validated_table config guard note_issues db source))
        query.Query.tables
    in
    Obs.Trace.attr_int trace "tables" (List.length tables);
    Obs.Trace.attr_int trace "issues" (List.length !issues);
    tables
  in
  Obs.Trace.attr_int trace "predicates" (List.length working);
  let tables =
    List.map
      (fun (name, source, db_table) ->
        (name, build_table config guard working classes db_table name ~source))
      validated
  in
  let index = build_index classes tables working in
  {
    config;
    predicates = working;
    classes;
    index;
    sel_cache = Array.make (Array.length index.pred_infos) Float.nan;
    stats = { sel_hits = 0; sel_misses = 0; reference_steps = 0 };
    guard;
    validation = List.rev !issues;
    annotations;
    kernel = None;
  }

let build_result ?trace ?annotations config db query =
  match build ?trace ?annotations config db query with
  | profile -> Ok profile
  | exception Els_error.Error e -> Error e
  | exception Invalid_argument msg ->
    Error (Els_error.Invalid_query { detail = msg })
  | exception Not_found ->
    Error
      (Els_error.Invalid_query
         { detail = "a query table or column is missing from the catalog" })

let table_count t = Array.length t.index.table_names
let table_bit t name = Hashtbl.find t.index.table_bits (normalize name)
let table_name t bit = t.index.table_names.(bit)
let table_at t bit = t.index.profiles.(bit)
let table t name = table_at t (table_bit t name)

let pred_count t = Array.length t.index.pred_infos
let pred t id = t.index.pred_infos.(id)
let scan_filters t name = t.index.local_preds_by_table.(table_bit t name)

let cache_stats t = t.stats

let guard t = t.guard
let guard_stats t = Guard.stats t.guard
let validation_issues t = t.validation

let join_card t cref =
  let profile = table t cref.Cref.table in
  match Cref.Map.find_opt cref profile.columns with
  | Some col ->
    if t.config.Config.local_aware then col.join_distinct
    else col.base_distinct
  | None ->
    (* A column never mentioned in predicates: fall back to its catalog
       cardinality. Callers only reach this for ad-hoc estimates. *)
    profile.base_rows

let column_stats t cref =
  let profile = table t cref.Cref.table in
  match Cref.Map.find_opt cref profile.columns with
  | Some col -> col.col_stats
  | None ->
    (* A column never mentioned in predicates carries no distribution
       information worth convolving; the estimators fall back to the
       System R defaults. *)
    Stats.Col_stats.trivial ~distinct:0

let selectivity_of_cards d1 d2 =
  let m = Float.max d1 d2 in
  if d1 <= 0. || d2 <= 0. then 0. else Float.min 1. (1. /. m)

(* Raw (unguarded, uncached) selectivity of one column-comparison
   predicate. Equality is the paper's 1/max(d1, d2) over the effective
   cardinalities; inequality and band go through the histogram-CDF
   convolution of {!Stats.Selectivity_est}, the rule-2d generalization,
   which also names the statistic it read on each side. *)
let comparison_selectivity t ~left ~op ~right =
  let convolved (s, sources) = (s, Some sources) in
  match op with
  | Predicate.Eq ->
    (selectivity_of_cards (join_card t left) (join_card t right), None)
  | Predicate.Band eps ->
    convolved
      (Stats.Selectivity_est.join_band (column_stats t left) ~eps
         (column_stats t right))
  | Predicate.Lt | Predicate.Le | Predicate.Gt | Predicate.Ge ->
    let cmp_op =
      match Predicate.cmp_of_comparison op with
      | Some o -> o
      | None -> assert false
    in
    convolved
      (Stats.Selectivity_est.join_comparison (column_stats t left) cmp_op
         (column_stats t right))

let join_selectivity t id =
  (* NaN marks an unfilled slot: real selectivities live in [0, 1], and a
     flat float array keeps the hit path unboxed. *)
  let s = t.sel_cache.(id) in
  if Float.is_nan s then begin
    t.stats.sel_misses <- t.stats.sel_misses + 1;
    let s =
      match t.index.pred_infos.(id).pred with
      | Predicate.Col_cmp { left; op; right } ->
        Guard.selectivity t.guard ~site:"Profile.join_selectivity"
          (fst (comparison_selectivity t ~left ~op ~right))
      | Predicate.Cmp _ ->
        invalid_arg "Profile.join_selectivity: not a join predicate"
    in
    t.sel_cache.(id) <- s;
    s
  end
  else begin
    t.stats.sel_hits <- t.stats.sel_hits + 1;
    s
  end

let estimator t = t.config.Config.estimator

(* The compiled kernel bakes in the estimator's arms, so the swapped copy
   recompiles lazily; the per-predicate [sel_cache] is
   estimator-independent and shared. *)
let with_estimator e t =
  { t with config = Config.with_estimator e t.config; kernel = None }

(* --- kernel compilation -------------------------------------------------

   Lowering a profile to a [Kernel.t]: the estimator's two arms passed
   through as they are, class roots interned as dense ids, the per-table
   adjacency re-laid out as CSR int arrays with precomputed other-endpoint
   bitmasks, and every join selectivity evaluated once into a float array.
   Selectivities go through the same memoized [join_selectivity], so guard
   semantics and violation accounting match the reference tier. *)

(* Per join predicate, the degree statistics a degree arm reads: both
   columns of an equality predicate, when ANALYZE collected them.
   Comparison predicates never pair (their selectivity is CDF-derived,
   not degree-derived). *)
let pred_degrees t jids =
  Array.map
    (fun id ->
      match t.index.pred_infos.(id).pred with
      | Predicate.Col_cmp { left; op = Predicate.Eq; right } -> begin
        match
          ( (column_stats t left).Stats.Col_stats.degree,
            (column_stats t right).Stats.Col_stats.degree )
        with
        | Some dl, Some dr -> Some (1 lsl table_bit t left.Cref.table, dl, dr)
        | _, _ -> None
      end
      | Predicate.Col_cmp _ | Predicate.Cmp _ -> None)
    jids

let compile_kernel t =
  let { Estimator.combine; cap; _ } = estimator t in
  let index = t.index in
  let n = Array.length index.table_names in
  let jids = index.join_pred_ids in
  let n_preds = Array.length jids in
  (* Predicate id -> dense position in [jids] (ascending conjunction
     order, the kernel's canonical predicate order). *)
  let jpos = Array.make (Array.length index.pred_infos) (-1) in
  Array.iteri (fun j id -> jpos.(id) <- j) jids;
  let rows = Array.init n (fun bit -> index.profiles.(bit).rows) in
  let pred_sel = Array.map (fun id -> join_selectivity t id) jids in
  (* Intern the class roots of equality predicates in first-occurrence
     order of the ascending predicate scan — the order
     [Selectivity.group_by_class] discovers them in. Lookup is
     [Cref.equal]-keyed, never polymorphic. Each comparison predicate is
     an independent constraint: a fresh class of its own. *)
  let roots = ref [] in
  let n_classes = ref 0 in
  let fresh () =
    let c = !n_classes in
    incr n_classes;
    c
  in
  let class_of info =
    match info.pred with
    | Predicate.Col_cmp { op = Predicate.Eq; _ } -> begin
      match List.find_opt (fun (r, _) -> Cref.equal r info.root) !roots with
      | Some (_, c) -> c
      | None ->
        let c = fresh () in
        roots := (info.root, c) :: !roots;
        c
    end
    | Predicate.Col_cmp _ | Predicate.Cmp _ -> fresh ()
  in
  let pred_class = Array.map (fun id -> class_of index.pred_infos.(id)) jids in
  let pred_mask_a = Array.make n_preds 0 in
  let pred_mask_b = Array.make n_preds 0 in
  Array.iteri
    (fun j id ->
      match index.pred_infos.(id).endpoints with
      | Some (a, b) ->
        pred_mask_a.(j) <- 1 lsl a;
        pred_mask_b.(j) <- 1 lsl b
      | None -> assert false (* [join_pred_ids] only holds joins *))
    jids;
  (* CSR re-layout of [join_preds_by_table], same per-table order. *)
  let adj_off = Array.make (n + 1) 0 in
  for bit = 0 to n - 1 do
    adj_off.(bit + 1) <-
      adj_off.(bit) + Array.length index.join_preds_by_table.(bit)
  done;
  let adj_pred = Array.make adj_off.(n) 0 in
  let adj_other_mask = Array.make adj_off.(n) 0 in
  for bit = 0 to n - 1 do
    Array.iteri
      (fun i id ->
        let slot = adj_off.(bit) + i in
        adj_pred.(slot) <- jpos.(id);
        match index.pred_infos.(id).endpoints with
        | Some (a, b) ->
          let other = if a = bit then b else a in
          adj_other_mask.(slot) <- 1 lsl other
        | None -> assert false)
      index.join_preds_by_table.(bit)
  done;
  let pred_degrees =
    match cap with
    | Estimator.Lp2 | Estimator.Degseq | Estimator.Ent -> pred_degrees t jids
    | Estimator.No_cap | Estimator.Min_rows -> [||]
  in
  Kernel.make ~rows ~adj_off ~adj_pred ~adj_other_mask ~pred_sel ~pred_class
    ~pred_mask_a ~pred_mask_b ~pred_degrees ~n_classes:!n_classes ~combine ~cap
    ~guard:t.guard

let kernel t =
  match t.kernel with
  | Some k -> k
  | None ->
    let k = compile_kernel t in
    t.kernel <- Some k;
    k

let kernel_steps t =
  match t.kernel with Some k -> Kernel.steps k | None -> 0

let kernel_fallback_steps t = t.stats.reference_steps
