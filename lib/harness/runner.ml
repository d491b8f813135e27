type trial = {
  algorithm : string;
  join_order : string list;
  estimates : float list;
  true_sizes : float list;
  result_rows : int;
  work : int;
  elapsed_s : float;
  estimated_cost : float;
  plan : Exec.Plan.t;
  provenance : Optimizer.Provenance.t;
}

let true_prefix_sizes db query order =
  let closed = (Els.Closure.compute query.Query.predicates).Els.Closure.predicates in
  let rec prefixes acc = function
    | [] -> List.rev acc
    | t :: rest ->
      let prefix = match acc with
        | [] -> [ t ]
        | prev :: _ -> prev @ [ t ]
      in
      prefixes (prefix :: acc) rest
  in
  let all_prefixes = prefixes [] order in
  List.filter_map
    (fun prefix ->
      if List.length prefix < 2 then None
      else begin
        let preds =
          List.filter (Query.Predicate.references_only prefix) closed
        in
        let sources =
          List.map (fun alias -> (alias, Query.source query alias)) prefix
        in
        let sub = Query.make ~sources ~tables:prefix preds in
        let result = Exec.Executor.run_query db sub in
        Some (float_of_int result.Exec.Executor.row_count)
      end)
    all_prefixes

(* One [budget] spans the whole trial: optimization spends node
   expansions against it, then execution spends rows against whatever
   remains — the deadline is shared end to end. *)
let run ?methods ?budget ?trace config db query =
  let choice = Optimizer.choose ?methods ?budget ?trace config db query in
  let rows, counters, elapsed_s =
    Obs.Trace.with_span trace "execute" @@ fun () ->
    let result = Exec.Executor.count ?budget db choice.Optimizer.plan in
    let rows, counters, _ = result in
    Obs.Trace.attr_int trace "rows" rows;
    Obs.Trace.attr_int trace "work" (Exec.Counters.total_work counters);
    result
  in
  {
    algorithm = choice.Optimizer.algorithm;
    join_order = choice.Optimizer.join_order;
    estimates = choice.Optimizer.intermediate_estimates;
    true_sizes = true_prefix_sizes db query choice.Optimizer.join_order;
    result_rows = rows;
    work = Exec.Counters.total_work counters;
    elapsed_s;
    estimated_cost = choice.Optimizer.estimated_cost;
    plan = choice.Optimizer.plan;
    provenance = choice.Optimizer.provenance;
  }
