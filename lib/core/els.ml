module Eqclass = Eqclass
module Closure = Closure
module Local_pred = Local_pred
module Estimator = Estimator
module Config = Config
module Profile = Profile
module Selectivity = Selectivity
module Incremental = Incremental
module Els_error = Els_error
module Guard = Guard
module Kernel = Kernel

let prepare ?trace ?annotations config db query =
  let profile = Profile.build ?trace ?annotations config db query in
  (* Pay kernel compilation here, once per prepared query, rather than on
     the first estimation step. *)
  ignore (Profile.kernel profile : Kernel.t);
  profile

let prepare_epoch ?trace config epoch query =
  (* Collect the epoch's staleness notes for the tables this query reads,
     so a derivation card attached to the profile discloses any
     last-known-good fallbacks behind its numbers. *)
  let annotations =
    query.Query.tables
    |> List.concat_map (fun name ->
           let source = Profile.normalize (Query.source query name) in
           List.map
             (fun note -> Printf.sprintf "%s: %s" source note)
             (Catalog.Epoch.annotations_for epoch source))
    |> List.sort_uniq String.compare
  in
  prepare ?trace ~annotations config (Catalog.Epoch.db epoch) query

let estimate config db query order =
  Incremental.final_size (prepare config db query) order

let intermediate_sizes config db query order =
  Incremental.history
    (Incremental.estimate_order (prepare config db query) order)

let prepare_result ?trace config db query =
  match Profile.build_result ?trace config db query with
  | Ok profile -> begin
    (* Compilation evaluates every join selectivity, so under [Strict] a
       guard breach can surface here — reify it like [build_result] does. *)
    match Profile.kernel profile with
    | _ -> Ok profile
    | exception Els_error.Error e -> Error e
  end
  | Error _ as e -> e

(* Reify everything the pipeline can throw at the API boundary; the inner
   code still uses exceptions freely. *)
let wrap f =
  match f () with
  | v -> Ok v
  | exception Els_error.Error e -> Error e
  | exception Invalid_argument msg ->
    Error (Els_error.Invalid_query { detail = msg })
  | exception Not_found ->
    Error
      (Els_error.Invalid_query
         { detail = "a query table or column is missing from the catalog" })

let checked_estimate site x =
  if Float.is_nan x then
    Error (Els_error.Invariant_violation { site; detail = "estimate is NaN" })
  else if x < 0. then
    Error
      (Els_error.Invariant_violation
         { site; detail = Printf.sprintf "estimate %h is negative" x })
  else if x = infinity then
    Error
      (Els_error.Invariant_violation { site; detail = "estimate is infinite" })
  else Ok x

let estimate_result config db query order =
  match wrap (fun () -> estimate config db query order) with
  | Error _ as e -> e
  | Ok x -> checked_estimate "Els.estimate" x

(* Every intermediate size, then the final one: a single-table order has
   no intermediate sizes, but its base size is still checked. *)
let estimate_order_result config db query order =
  let check site x = Result.map ignore (checked_estimate site x) in
  let ( let* ) = Result.bind in
  let* state =
    wrap (fun () -> Incremental.estimate_order (prepare config db query) order)
  in
  let* () =
    List.fold_left
      (fun acc x ->
        let* () = acc in
        check "Els.intermediate_sizes" x)
      (Ok ()) (Incremental.history state)
  in
  let* () = check "Els.estimate" state.Incremental.size in
  Ok state
