let of_cards = Profile.selectivity_of_cards

let join_with_sources profile p =
  match p with
  | Query.Predicate.Col_cmp { left; op; right }
    when not (Query.Cref.same_table left right) ->
    Profile.comparison_selectivity profile ~left ~op ~right
  | Query.Predicate.Col_cmp _ | Query.Predicate.Cmp _ ->
    invalid_arg
      (Printf.sprintf "Selectivity.join: %s is not a join predicate"
         (Query.Predicate.to_string p))

let join profile p = fst (join_with_sources profile p)

let group_by_class profile predicates =
  let classes = profile.Profile.classes in
  let root p =
    match Query.Predicate.columns p with
    | col :: _ -> Eqclass.find classes col
    | [] -> assert false
  in
  (* [Cref.equal]-keyed (with the [==] fast path for the physically shared
     roots [Eqclass.find] returns), matching membership tests everywhere
     else — a polymorphic [List.assoc_opt] would silently split a class in
     two (squaring its selectivity) if [Cref.t] ever grows a field where
     structural (=) diverges from [Cref.equal]. *)
  (* Only equality predicates share a class-derived selectivity (the
     estimator rules reconcile multiple 1/max-d estimates of one class);
     each comparison predicate is an independent constraint and forms its
     own singleton group, contributing its own factor to the product. *)
  let groups = ref [] in
  List.iter
    (fun p ->
      match p with
      | Query.Predicate.Col_cmp { op = Query.Predicate.Eq; _ } -> begin
        let r = root p in
        match
          List.find_opt
            (fun (r', _) ->
              match r' with
              | Some r' -> r' == r || Query.Cref.equal r' r
              | None -> false)
            !groups
        with
        | Some (_, members) -> members := p :: !members
        | None -> groups := (Some r, ref [ p ]) :: !groups
      end
      | Query.Predicate.Col_cmp _ | Query.Predicate.Cmp _ ->
        groups := (None, ref [ p ]) :: !groups)
    predicates;
  List.rev_map (fun (_, members) -> List.rev !members) !groups
