type strictness = Catalog.Validate.strictness =
  | Strict
  | Repair
  | Trap

type t = {
  closure : bool;
  estimator : Estimator.t;
  local_aware : bool;
  single_table : bool;
  strictness : strictness;
}

let of_estimator ?(strictness = Repair) (e : Estimator.t) =
  {
    closure = e.Estimator.flags.Estimator.closure;
    estimator = e;
    local_aware = e.Estimator.flags.Estimator.local_aware;
    single_table = e.Estimator.flags.Estimator.single_table;
    strictness;
  }

let sm ~ptc = { (of_estimator Estimator.m) with closure = ptc }
(* Estimator.m's canonical flags already have closure on, so [sm ~ptc:true]
   = [of_estimator Estimator.m]; the record update only matters for plain
   SM. *)
let sss = of_estimator Estimator.ss
let els = of_estimator Estimator.ls
let pess = of_estimator Estimator.pess

let panel ?strictness () =
  List.map (fun e -> of_estimator ?strictness e) (Estimator.registry ())

let with_strictness strictness t = { t with strictness }
let with_estimator estimator t = { t with estimator }

(* Field-wise, the estimator by id. Strictness is orthogonal to the
   algorithm and compared separately. *)
let same_algorithm a b =
  Bool.equal a.closure b.closure
  && Estimator.equal a.estimator b.estimator
  && Bool.equal a.local_aware b.local_aware
  && Bool.equal a.single_table b.single_table

let name t =
  let algorithm =
    if same_algorithm t els then "ELS"
    else if same_algorithm t sss then "SSS"
    else if same_algorithm t pess then "PESS"
    else if same_algorithm t (sm ~ptc:false) then "SM"
    else if same_algorithm t (sm ~ptc:true) then "SM+PTC"
    else
      (* A registry estimator in its canonical configuration prints its
         label (LP2, DEGSEQ, ...); custom(...) is for off-registry
         estimators and flag combinations only. *)
      match
        List.find_opt
          (fun e -> same_algorithm t (of_estimator e))
          (Estimator.registry ())
      with
      | Some e -> Estimator.label e
      | None ->
      Printf.sprintf "custom(rule=%s%s%s%s)"
        (Estimator.label t.estimator)
        (if t.closure then ",ptc" else "")
        (if t.local_aware then ",local" else "")
        (if t.single_table then ",1table" else "")
  in
  match t.strictness with
  | Repair -> algorithm
  | Strict -> algorithm ^ "!strict"
  | Trap -> algorithm ^ "!trap"
