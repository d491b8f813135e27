type restriction =
  | Unrestricted
  | Equality of Rel.Value.t
  | Range of float
  | Contradiction

type combined = {
  selectivity : float;
  restriction : restriction;
  source : Stats.Selectivity_est.source option;
}

let satisfies op v const = Rel.Cmp.eval op v const

(* Tightest lower bound: larger constant wins; on ties the exclusive
   ([>]) bound wins. Dually for upper bounds. *)
let tighter_lower (op_a, a) (op_b, b) =
  let c = Rel.Value.compare_sem a b in
  if c > 0 then (op_a, a)
  else if c < 0 then (op_b, b)
  else if op_a = Rel.Cmp.Gt then (op_a, a)
  else (op_b, b)

let tighter_upper (op_a, a) (op_b, b) =
  let c = Rel.Value.compare_sem a b in
  if c < 0 then (op_a, a)
  else if c > 0 then (op_b, b)
  else if op_a = Rel.Cmp.Lt then (op_a, a)
  else (op_b, b)

let fold_tightest tighter = function
  | [] -> None
  | first :: rest -> Some (List.fold_left tighter first rest)

(* Does the interval (lower, upper) admit any value? *)
let interval_nonempty lower upper =
  match lower, upper with
  | Some (lop, lo), Some (uop, hi) ->
    let c = Rel.Value.compare_sem lo hi in
    if c > 0 then false
    else if c = 0 then lop = Rel.Cmp.Ge && uop = Rel.Cmp.Le
    else true
  | _, _ -> true

let combine stats preds =
  let contradiction =
    { selectivity = 0.; restriction = Contradiction; source = None }
  in
  (* SQL: a comparison with NULL never holds, so the conjunction is empty. *)
  if List.exists (fun (_, const) -> Rel.Value.is_null const) preds then
    contradiction
  else begin
    let eqs = ref []
    and lowers = ref []
    and uppers = ref []
    and nes = ref [] in
    List.iter
      (fun (op, const) ->
        match op with
        | Rel.Cmp.Eq -> eqs := const :: !eqs
        | Rel.Cmp.Ne -> nes := const :: !nes
        | Rel.Cmp.Gt | Rel.Cmp.Ge -> lowers := (op, const) :: !lowers
        | Rel.Cmp.Lt | Rel.Cmp.Le -> uppers := (op, const) :: !uppers)
      preds;
    match !eqs with
    | v :: rest ->
      (* Most restrictive equality: all equalities must agree and the
         pinned value must satisfy every other predicate. *)
      if not (List.for_all (Rel.Value.equal_sem v) rest) then contradiction
      else if
        not
          (List.for_all (fun (op, c) -> satisfies op v c) !lowers
          && List.for_all (fun (op, c) -> satisfies op v c) !uppers
          && List.for_all (fun c -> not (Rel.Value.equal_sem v c)) !nes)
      then contradiction
      else
        let selectivity, source =
          Stats.Selectivity_est.comparison_with_source stats Rel.Cmp.Eq v
        in
        { selectivity; restriction = Equality v; source = Some source }
    | [] ->
      let lower = fold_tightest tighter_lower !lowers in
      let upper = fold_tightest tighter_upper !uppers in
      if not (interval_nonempty lower upper) then contradiction
      else begin
        let range_sel, source =
          match lower, upper with
          | None, None -> (1., None)
          | _, _ ->
            let s, source =
              Stats.Selectivity_est.range_pair_with_source stats ~lower ~upper
            in
            (s, Some source)
        in
        (* Each surviving <> excludes one value's share of the rows. *)
        let in_interval c =
          (match lower with
          | None -> true
          | Some (op, lo) -> satisfies op c lo)
          &&
          match upper with
          | None -> true
          | Some (op, hi) -> satisfies op c hi
        in
        let ne_factor =
          List.fold_left
            (fun acc c ->
              if in_interval c then
                acc
                *. (1.
                   -. Stats.Selectivity_est.comparison stats Rel.Cmp.Eq c)
              else acc)
            1.
            (* Numeric-aware dedup: [<> 3] and [<> 3.0] exclude the same
               value and must not be double-counted. *)
            (List.sort_uniq Rel.Value.compare_sem !nes)
        in
        let selectivity = range_sel *. ne_factor in
        let restriction =
          if lower = None && upper = None && !nes = [] then Unrestricted
          else Range selectivity
        in
        { selectivity; restriction; source }
      end
  end

let reduced_distinct stats combined =
  let d = float_of_int stats.Stats.Col_stats.distinct in
  match combined.restriction with
  | Unrestricted -> d
  | Equality _ -> 1.
  | Range s ->
    (* A satisfiable restriction leaves at least one value (d′ ≥ 1,
       Section 5); letting d′ drop below 1 would turn the downstream
       1/max(d′₁, d′₂) join selectivities into amplification factors. *)
    Float.max 1. (d *. s)
  | Contradiction -> 0.
