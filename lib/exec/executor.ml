type result = {
  relation : Rel.Relation.t;
  row_count : int;
  counters : Counters.t;
  elapsed_s : float;
}

let relation_of db ~table ~source =
  let relation = Catalog.Db.relation_exn db source in
  if String.equal table source then relation
  else Rel.Relation.rename relation table

let rec schema_of db = function
  | Plan.Scan { table; source; _ } ->
    Rel.Relation.schema (relation_of db ~table ~source)
  | Plan.Join { outer; inner; _ } ->
    Rel.Schema.concat (schema_of db outer) (schema_of db inner)

let rec operator_of_plan pool counters db plan =
  match plan with
  | Plan.Scan { table; source; filters } ->
    Scan.relation counters ~filters (relation_of db ~table ~source)
  | Plan.Join { method_; outer; inner; predicates } -> begin
    let outer = operator_of_plan pool counters db outer in
    let make_inner () = operator_of_plan pool counters db inner in
    match method_ with
    | Plan.Nested_loop ->
      (* An inner rebuilt per outer row builds into tables of its own,
         freed with it, or the run's pool would hold one per outer row. *)
      Nested_loop.join counters predicates ~outer
        ~inner_schema:(schema_of db inner) ~make_inner:(fun () ->
          operator_of_plan (Flat_table.pool ()) counters db inner)
    | Plan.Sort_merge ->
      Sort_merge.join counters predicates ~outer ~inner:(make_inner ())
    | Plan.Hash ->
      (* Builds whose size is known (every row of an unfiltered base table
         here, of the indexed relation below) get room for it up front. *)
      let rows =
        match inner with
        | Plan.Scan { table; source; filters = [] } ->
          Rel.Relation.cardinality (relation_of db ~table ~source)
        | Plan.Scan _ | Plan.Join _ -> 0
      in
      Hash_join.join ~table:(Flat_table.take pool ~rows) counters predicates
        ~outer ~inner:(make_inner ())
    | Plan.Index_nested_loop -> begin
      match inner with
      | Plan.Scan { table; source; filters } ->
        let inner = relation_of db ~table ~source in
        let rows = Rel.Relation.cardinality inner in
        Index_nested_loop.join ~table:(Flat_table.take pool ~rows) counters
          predicates ~inner_filters:filters ~outer ~inner
      | Plan.Join _ ->
        invalid_arg
          "Executor: index nested loop requires a base-table inner"
    end
  end

(* Execution cannot degrade the way enumeration can — a truncated join
   result is wrong, not approximate — so a budget trip during execution
   surfaces as a structured [Budget_exhausted] error carrying the work
   performed so far. *)
let budget_error counters resource =
  Els.Els_error.Budget_exhausted
    {
      site = "executor";
      resource;
      detail =
        Printf.sprintf "cancelled after %d tuples read, %d tuples output"
          counters.Counters.tuples_read counters.Counters.tuples_output;
    }

let execute ?budget db plan drain =
  let counters = Counters.create ?budget () in
  let pool = Flat_table.take_pool () in
  let t0 = Unix.gettimeofday () in
  let outcome =
    match drain (operator_of_plan pool counters db plan) with
    | value -> Ok value
    | exception Rel.Budget.Exhausted resource ->
      Error (budget_error counters resource)
  in
  Flat_table.give_back pool;
  (outcome, counters, Unix.gettimeofday () -. t0)

let run ?budget db plan =
  match execute ?budget db plan Operator.to_relation with
  | Ok relation, counters, elapsed_s ->
    {
      relation;
      row_count = Rel.Relation.cardinality relation;
      counters;
      elapsed_s;
    }
  | Error e, _, _ -> Els.Els_error.raise_ e

let count_result ?budget db plan = execute ?budget db plan Operator.count

let count ?budget db plan =
  match count_result ?budget db plan with
  | Ok rows, counters, elapsed_s -> (rows, counters, elapsed_s)
  | Error e, _, _ -> Els.Els_error.raise_ e

(* Left-deep reference plan in FROM order with every predicate placed at
   the earliest node covering its columns. *)
let reference_plan query =
  let place_filters covered preds =
    List.partition
      (fun p -> Query.Predicate.references_only covered p)
      preds
  in
  match query.Query.tables with
  | [] -> invalid_arg "Executor: query with no tables"
  | first :: rest ->
    let local_first, remaining =
      place_filters [ first ] query.Query.predicates
    in
    let plan0 =
      Plan.scan ~source:(Query.source query first) ~filters:local_first first
    in
    let plan, _, leftover =
      List.fold_left
        (fun (plan, covered, preds) table ->
          let covered = table :: covered in
          let here, later = place_filters covered preds in
          (* Predicates evaluable on the inner table alone are pushed into
             its scan; the rest attach to the join. *)
          let scan_filters, join_preds =
            List.partition
              (fun p -> Query.Predicate.references_only [ table ] p)
              here
          in
          let inner =
            Plan.scan ~source:(Query.source query table) ~filters:scan_filters
              table
          in
          let bridges p =
            match p with
            | Query.Predicate.Col_cmp { left; right; _ } ->
              not (Query.Cref.same_table left right)
              && (String.equal left.Query.Cref.table table
                 || String.equal right.Query.Cref.table table)
            | Query.Predicate.Cmp _ -> false
          in
          let has_eq_key =
            List.exists
              (fun p -> Query.Predicate.is_equijoin p && bridges p)
              join_preds
          in
          let has_comparison = List.exists bridges join_preds in
          (* Hash wants an equality key; a comparison-only link takes the
             generalized sort-merge; a cartesian link falls back to
             nested loops. *)
          let method_ =
            if has_eq_key then Plan.Hash
            else if has_comparison then Plan.Sort_merge
            else Plan.Nested_loop
          in
          ( Plan.Join { method_; outer = plan; inner; predicates = join_preds },
            covered,
            later ))
        (plan0, [ first ], remaining)
        rest
    in
    assert (leftover = []);
    plan

let count_query db query =
  let rows, _, _ = count db (reference_plan query) in
  rows

let run_query ?budget db query =
  let result = run ?budget db (reference_plan query) in
  match query.Query.projection with
  | Query.Star | Query.Count_star -> result
  | Query.Columns cols ->
    let projected =
      Operator.to_relation
        (Project.columns cols (Operator.of_relation result.relation))
    in
    { result with relation = projected }
