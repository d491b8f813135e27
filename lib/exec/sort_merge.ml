let counted counters compare a b =
  Counters.compared counters 1;
  compare a b

(* Materialize an input, keep the tuples [keep] accepts and sort them,
   charging one comparison per sort comparison. *)
let sorted counters keep compare input =
  let arr =
    Array.of_list
      (Operator.fold (fun acc t -> if keep t then t :: acc else acc) [] input)
  in
  Array.sort (counted counters compare) arr;
  arr

(* --- key merge -----------------------------------------------------------

   Both inputs sorted on their equi-key columns; each left tuple is paired
   with the run of right tuples sharing its key, and a left tuple with
   the same key as its predecessor re-pairs with the same run. NULL keys
   are stepped over. *)
let key_merge counters emit ~left_cols ~right_cols ~outer ~inner =
  let all _ = true in
  let left_arr = sorted counters all (Rel.Tuple.compare_at left_cols) outer in
  let right_arr =
    sorted counters all (Rel.Tuple.compare_at right_cols) inner
  in
  let nl = Array.length left_arr and nr = Array.length right_arr in
  (* Cross-input key comparison: compare the projections pairwise. *)
  let cross_compare =
    counted counters (fun left right ->
        let rec loop ls rs =
          match ls, rs with
          | [], [] -> 0
          | i :: ls, j :: rs ->
            let c = Rel.Value.compare left.(i) right.(j) in
            if c <> 0 then c else loop ls rs
          | [], _ :: _ | _ :: _, [] -> assert false
        in
        loop left_cols right_cols)
  in
  let right_compare = counted counters (Rel.Tuple.compare_at right_cols) in
  (* End of the right run starting at [run]. *)
  let rec run_end run fin =
    if fin < nr && right_compare right_arr.(run) right_arr.(fin) = 0 then
      run_end run (fin + 1)
    else fin
  in
  fun k ->
    (* Pair left tuple [li], and each following left tuple with the same
       key, with the right run [run, fin); the next left index. *)
    let rec pair li run fin =
      for j = run to fin - 1 do
        emit k left_arr.(li) right_arr.(j)
      done;
      let li = li + 1 in
      if li < nl && cross_compare left_arr.(li) right_arr.(run) = 0 then
        pair li run fin
      else li
    in
    let rec merge li ri =
      if li < nl && ri < nr then
        if Join_keys.has_null left_cols left_arr.(li) then merge (li + 1) ri
        else if Join_keys.has_null right_cols right_arr.(ri) then
          merge li (ri + 1)
        else
          let c = cross_compare left_arr.(li) right_arr.(ri) in
          if c < 0 then merge (li + 1) ri
          else if c > 0 then merge li (ri + 1)
          else
            let fin = run_end ri (ri + 1) in
            merge (pair li ri fin) fin
    in
    merge 0 0

(* --- comparison merge ---------------------------------------------------

   The inequality/band generalization: both inputs sorted on the driving
   predicate's columns under {!Rel.Value.compare_sem} (the order
   {!Rel.Cmp.eval} compares by), then for each right tuple the qualifying
   left tuples form a monotone window of the sorted left input — a
   growing prefix for [Lt]/[Le], a shrinking suffix for [Gt]/[Ge], and a
   two-pointer sliding window for a band. Each window endpoint only ever
   advances, so the merge does O(n log n) sort comparisons plus
   O(output) emission work. NULL driver keys never qualify and are
   dropped up front (as are non-numeric keys under a band). *)
let comparison_merge counters emit ~lcol ~rcol ~op ~outer ~inner =
  let keep col tuple =
    (not (Rel.Value.is_null tuple.(col)))
    &&
    match op with
    | Query.Predicate.Band _ -> begin
      match tuple.(col) with
      | Rel.Value.Int _ | Rel.Value.Float _ -> true
      | Rel.Value.Null | Rel.Value.String _ | Rel.Value.Bool _ -> false
    end
    | Query.Predicate.Eq | Query.Predicate.Lt | Query.Predicate.Le
    | Query.Predicate.Gt | Query.Predicate.Ge ->
      true
  in
  let sorted_on col =
    sorted counters (keep col) (fun a b ->
        Rel.Value.compare_sem a.(col) b.(col))
  in
  let left_arr = sorted_on lcol outer in
  let right_arr = sorted_on rcol inner in
  let nl = Array.length left_arr in
  (* The first index from [i] whose left key fails [p]. *)
  let rec skip p i =
    if i < nl && p left_arr.(i).(lcol) then skip p (i + 1) else i
  in
  (* A left key against the current right key, charged. *)
  let versus rkey l = counted counters Rel.Value.compare_sem l rkey in
  let band_key l =
    Counters.compared counters 1;
    Rel.Value.float_exn l
  in
  fun k ->
    (* Qualifying left indexes for the current right tuple: [lo, hi),
       both bounds monotone in the right key. *)
    let lo = ref 0 and hi = ref 0 in
    Array.iter
      (fun right ->
        let rkey = right.(rcol) in
        (match op with
        | Query.Predicate.Lt -> hi := skip (fun l -> versus rkey l < 0) !hi
        | Query.Predicate.Le -> hi := skip (fun l -> versus rkey l <= 0) !hi
        | Query.Predicate.Gt ->
          hi := nl;
          lo := skip (fun l -> versus rkey l <= 0) !lo
        | Query.Predicate.Ge ->
          hi := nl;
          lo := skip (fun l -> versus rkey l < 0) !lo
        | Query.Predicate.Band eps ->
          let x = Rel.Value.float_exn rkey in
          lo := skip (fun l -> band_key l < x -. eps) !lo;
          hi := skip (fun l -> band_key l <= x +. eps) (max !hi !lo)
        | Query.Predicate.Eq ->
          invalid_arg
            "Sort_merge.comparison_merge: Eq is a merge key, not a driver");
        for li = !lo to !hi - 1 do
          emit k left_arr.(li) right
        done)
      right_arr

let join counters preds ~outer ~inner =
  let left = Operator.schema outer and right = Operator.schema inner in
  let keys, residual = Join_keys.split ~left ~right preds in
  let produce =
    if keys <> [] then
      key_merge counters
        (Emit.joiner counters ~left ~right residual)
        ~left_cols:(List.map fst keys) ~right_cols:(List.map snd keys) ~outer
        ~inner
    else
      match Join_keys.comparison_driver ~left ~right residual with
      | Some (driver, lcol, rcol, op) ->
        let residual = List.filter (fun p -> p != driver) residual in
        comparison_merge counters
          (Emit.joiner counters ~left ~right residual)
          ~lcol ~rcol ~op ~outer ~inner
      | None -> invalid_arg "Sort_merge.join: no join key between the inputs"
  in
  Operator.join (Rel.Schema.concat left right) produce
