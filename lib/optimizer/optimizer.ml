module Cost = Cost
module Dp = Dp
module Greedy = Greedy
module Random_walk = Random_walk
module Provenance = Provenance

type choice = {
  algorithm : string;
  plan : Exec.Plan.t;
  join_order : string list;
  intermediate_estimates : float list;
  estimated_cost : float;
  profile : Els.Profile.t;
  provenance : Provenance.t;
}

type enumerator =
  | Exhaustive  (** Selinger dynamic programming (default) *)
  | Greedy_order  (** O(n²) greedy construction *)
  | Randomized of int  (** iterative improvement with the given seed *)

let enumerator_name = function
  | Exhaustive -> "dp"
  | Greedy_order -> "greedy"
  | Randomized _ -> "random"

let enumerators = [ Exhaustive; Greedy_order; Randomized 1 ]

let enumerator_of_string name =
  let needle = String.lowercase_ascii (String.trim name) in
  match
    List.find_opt (fun e -> String.equal (enumerator_name e) needle) enumerators
  with
  | Some e -> Ok e
  | None ->
    let candidates = List.map enumerator_name enumerators in
    Error
      (Printf.sprintf "unknown enumerator %S, expected one of: %s%s" name
         (String.concat ", " candidates)
         (Catalog.Suggest.hint ~candidates name))

let choose ?methods ?(enumerator = Exhaustive) ?estimator ?budget ?trace config
    db query =
  (* Swap before [build] so the pipeline toggles stay as configured but
     [Config.name] (the reported algorithm) reflects the estimator. *)
  let config =
    match estimator with
    | None -> config
    | Some e -> Els.Config.with_estimator e config
  in
  let profile = Els.Profile.build ?trace config db query in
  let node, provenance =
    Obs.Trace.with_span trace "optimize" @@ fun () ->
    let result =
      match enumerator with
      | Exhaustive -> Dp.optimize_traced ?methods ?budget profile query
      | Greedy_order -> Greedy.optimize_traced ?methods ?budget profile query
      | Randomized seed ->
        Random_walk.optimize_traced ?methods ~seed ?budget profile query
    in
    let _, provenance = result in
    Obs.Trace.attr_str trace "rung"
      (Provenance.rung_name provenance.Provenance.rung);
    Obs.Trace.attr_int trace "expansions" provenance.Provenance.expansions;
    result
  in
  {
    algorithm = Els.Config.name config;
    plan = node.Dp.plan;
    join_order = Exec.Plan.join_order node.Dp.plan;
    intermediate_estimates = Els.Incremental.history node.Dp.state;
    estimated_cost = node.Dp.cost;
    profile;
    provenance;
  }

(* Render the (left-deep) plan with each join annotated by its estimated
   output size: the innermost join carries the first estimate, the
   outermost the last. *)
let pp_annotated ppf plan estimates =
  let estimates = Array.of_list estimates in
  let rec join_count = function
    | Exec.Plan.Scan _ -> 0
    | Exec.Plan.Join { outer; inner; _ } ->
      join_count outer + join_count inner + 1
  in
  let rec render indent node =
    match node with
    | Exec.Plan.Scan { table; source; filters } ->
      Format.fprintf ppf "%sScan %s" indent table;
      if not (String.equal table source) then
        Format.fprintf ppf " (= %s)" source;
      if filters <> [] then
        Format.fprintf ppf " [%s]"
          (String.concat " AND "
             (List.map Query.Predicate.to_string filters));
      Format.fprintf ppf "@."
    | Exec.Plan.Join { method_; outer; inner; predicates } ->
      let idx = join_count node - 1 in
      Format.fprintf ppf "%s%s join" indent (Exec.Plan.method_name method_);
      if predicates <> [] then
        Format.fprintf ppf " on %s"
          (String.concat " AND "
             (List.map Query.Predicate.to_string predicates));
      if idx >= 0 && idx < Array.length estimates then
        Format.fprintf ppf "  (est rows: %.4g)" estimates.(idx);
      Format.fprintf ppf "@.";
      render (indent ^ "  ") outer;
      render (indent ^ "  ") inner
  in
  render "" plan

let explain ppf choice =
  Format.fprintf ppf "algorithm: %s@." choice.algorithm;
  Format.fprintf ppf "provenance: %a@." Provenance.pp choice.provenance;
  Format.fprintf ppf "join order: %s@."
    (String.concat " ⋈ " choice.join_order);
  Format.fprintf ppf "estimated sizes after each join: %s@."
    (String.concat ", "
       (List.map (Printf.sprintf "%.4g") choice.intermediate_estimates));
  Format.fprintf ppf "estimated cost (work units): %.4g@."
    choice.estimated_cost;
  Format.fprintf ppf "plan:@.";
  pp_annotated ppf choice.plan choice.intermediate_estimates
