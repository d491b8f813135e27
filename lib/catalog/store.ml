type drift = {
  rows_since_analyze : int;
  d_drift : float;
}

type counters = {
  epoch : int;
  publishes : int;
  audits_failed : int;
  quarantines : int;
  quarantined_now : int;
  stale_served : int;
  retries : int;
  retry_successes : int;
  hard_fallbacks : int;
  delta_inserts : int;
  delta_deletes : int;
}

type table_state = {
  name : string;
  mutable live : Rel.Relation.t;
  mutable published : Table.t; (* stats-only, part of the current epoch *)
  mutable staged : Table.t option; (* stats-only candidate for next publish *)
  mutable last_good : Table.t option; (* stats-only, passed its last audit *)
  mutable quarantined : bool;
  mutable failures : int; (* consecutive failed audits *)
  mutable backoff : int; (* publishes to skip before the next re-audit *)
  mutable rows_since_analyze : int;
  mutable version : int; (* bumped by every insert and every delete *)
}

type t = {
  strictness : Validate.strictness;
  histogram : Stats.Histogram.kind option;
  histogram_buckets : int option;
  mcv : int option;
  states : table_state list; (* registration order *)
  current : Epoch.t Atomic.t; (* read without the writers' lock *)
  mutable publishes : int;
  mutable audits_failed : int;
  mutable quarantines : int;
  mutable stale_served : int;
  mutable retries : int;
  mutable retry_successes : int;
  mutable hard_fallbacks : int;
  mutable delta_inserts : int;
  mutable delta_deletes : int;
}

let strictness t = t.strictness

let freeze (tbl : Table.t) =
  Table.stats_only ~name:tbl.name ~schema:tbl.schema ~row_count:tbl.row_count
    ~column_stats:tbl.column_stats

let epoch_of states ~id ~annotations =
  let db = Db.create () in
  List.iter (fun st -> Db.add db st.published) states;
  Epoch.create ~id ~annotations db

let create ?(strictness = Validate.Repair) ?histogram ?histogram_buckets ?mcv
    db =
  let states =
    List.map
      (fun (tbl : Table.t) ->
        let live =
          match tbl.data with
          | Some rel -> rel
          | None ->
            invalid_arg
              (Printf.sprintf
                 "Catalog.Store.create: table %s is stats-only; the store \
                  needs live data to stream deltas and re-ANALYZE"
                 tbl.name)
        in
        let published = freeze tbl in
        {
          name = tbl.name;
          live;
          published;
          staged = None;
          last_good =
            (if Validate.check_table published = [] then Some published
             else None);
          quarantined = false;
          failures = 0;
          backoff = 0;
          rows_since_analyze = 0;
          version = 0;
        })
      (Db.tables db)
  in
  {
    strictness;
    histogram;
    histogram_buckets;
    mcv;
    states;
    current = Atomic.make (epoch_of states ~id:0 ~annotations:[]);
    publishes = 0;
    audits_failed = 0;
    quarantines = 0;
    stale_served = 0;
    retries = 0;
    retry_successes = 0;
    hard_fallbacks = 0;
    delta_inserts = 0;
    delta_deletes = 0;
  }

let pin t = Atomic.get t.current

let find_state t name =
  let name = String.lowercase_ascii name in
  match List.find_opt (fun st -> st.name = name) t.states with
  | Some st -> st
  | None ->
    invalid_arg (Printf.sprintf "Catalog.Store: unknown table %s" name)

let live t ~table = (find_state t table).live

(* --- staged delta maintenance ------------------------------------------ *)

let numeric = function
  | Rel.Value.Int x -> Some (float_of_int x)
  | Rel.Value.Float x -> Some x
  | Rel.Value.Null | Rel.Value.String _ | Rel.Value.Bool _ -> None

let widen_bound cmp current v =
  match current with
  | None -> Some v
  | Some b -> if cmp (Rel.Value.compare v b) 0 then Some v else Some b

(* Maps every column's statistics through [f colname index stats], where
   [index] is the column's tuple position. *)
let map_cols (tbl : Table.t) f =
  let positions =
    List.mapi
      (fun i c -> (String.lowercase_ascii c.Rel.Schema.name, i))
      (Rel.Schema.columns tbl.schema)
  in
  {
    tbl with
    column_stats =
      List.map
        (fun (col, s) ->
          match List.assoc_opt col positions with
          | Some i -> (col, f col i s)
          | None -> (col, s))
        tbl.column_stats;
  }

let staged_candidate st =
  match st.staged with
  | Some tbl -> tbl
  | None -> st.published

let insert t ~table rows =
  let st = find_state t table in
  let tuples = List.map Rel.Tuple.of_list rows in
  List.iter (fun tup -> Rel.Relation.insert st.live tup) tuples;
  let base = staged_candidate st in
  let updated =
    map_cols
      { base with row_count = base.row_count + List.length tuples }
      (fun _ i (s : Stats.Col_stats.t) ->
        let values =
          Array.of_list (List.map (fun tup -> Rel.Tuple.get tup i) tuples)
        in
        let nulls =
          s.nulls
          + Array.fold_left
              (fun acc v -> if Rel.Value.is_null v then acc + 1 else acc)
              0 values
        in
        let distinct_sketch =
          Option.map (fun sk -> Stats.Hll.add_values sk values)
            s.distinct_sketch
        in
        let histogram =
          Option.map
            (fun h ->
              Array.fold_left
                (fun h v ->
                  match numeric v with
                  | Some x -> Stats.Histogram.add_value h x
                  | None -> h)
                h values)
            s.histogram
        in
        let min_value, max_value =
          Array.fold_left
            (fun (lo, hi) v ->
              if Rel.Value.is_null v then (lo, hi)
              else (widen_bound ( < ) lo v, widen_bound ( > ) hi v))
            (s.min_value, s.max_value)
            values
        in
        (* [distinct] is deliberately NOT maintained: the gap between it
           and the sketch is the d-drift the gauges and audits measure. *)
        { s with nulls; distinct_sketch; histogram; min_value; max_value })
  in
  st.staged <- Some updated;
  st.rows_since_analyze <- st.rows_since_analyze + List.length tuples;
  st.version <- st.version + 1;
  t.delta_inserts <- t.delta_inserts + List.length tuples

let delete t ~table ~indices =
  let st = find_state t table in
  let n = Rel.Relation.cardinality st.live in
  (* One flag per live row: out-of-range indices are ignored and
     duplicates collapse. *)
  let doomed = Array.make n false in
  List.iter (fun i -> if i >= 0 && i < n then doomed.(i) <- true) indices;
  let kept = Rel.Relation.create (Rel.Relation.schema st.live) in
  let removed = ref [] in
  for i = 0 to n - 1 do
    let tup = Rel.Relation.get st.live i in
    if doomed.(i) then removed := tup :: !removed
    else Rel.Relation.insert kept tup
  done;
  let removed = List.rev !removed in
  if removed <> [] then begin
    st.live <- kept;
    let base = staged_candidate st in
    let updated =
      map_cols
        { base with row_count = max 0 (base.row_count - List.length removed) }
        (fun _ i (s : Stats.Col_stats.t) ->
          List.fold_left
            (fun (s : Stats.Col_stats.t) tup ->
              let v = Rel.Tuple.get tup i in
              if Rel.Value.is_null v then
                { s with nulls = max 0 (s.nulls - 1) }
              else
                match numeric v, s.histogram with
                | Some x, Some h ->
                  { s with histogram = Some (Stats.Histogram.remove_value h x) }
                | _ -> s)
            s removed)
    in
    st.staged <- Some updated;
    st.rows_since_analyze <- st.rows_since_analyze + List.length removed;
    st.version <- st.version + 1;
    t.delta_deletes <- t.delta_deletes + List.length removed
  end

(* --- re-ANALYZE in three phases ---------------------------------------- *)

type snapshot = {
  state : table_state;
  version : int; (* the table's version when its rows were copied *)
  rows : Rel.Relation.t; (* a private copy of the live rows *)
}

type analysis = {
  snapshot : snapshot;
  shards : int;
  analyzed : Table.t; (* stats-only *)
}

let snapshot t ~table =
  let st = find_state t table in
  { state = st; version = st.version; rows = Rel.Relation.copy st.live }

(* Reads nothing of the store but its analyze options, which never
   change, so it needs no lock. *)
let analyze_rows t ~shards ~name rows =
  if shards <= 1 then
    freeze
      (Analyze.table ?histogram:t.histogram
         ?histogram_buckets:t.histogram_buckets ?mcv:t.mcv ~name rows)
  else begin
    let schema = Rel.Relation.schema rows in
    let parts = Array.make shards [] in
    List.iteri
      (fun i tup -> parts.(i mod shards) <- tup :: parts.(i mod shards))
      (Rel.Relation.to_list rows);
    let relations =
      Array.to_list parts
      |> List.filter_map (fun tuples ->
             match tuples with
             | [] -> None
             | _ -> Some (Rel.Relation.of_tuples schema (List.rev tuples)))
    in
    match relations with
    | [] ->
      (* Empty table: the bulk path handles it (zero rows, empty stats). *)
      freeze
        (Analyze.table ?histogram:t.histogram
           ?histogram_buckets:t.histogram_buckets ?mcv:t.mcv ~name rows)
    | _ ->
      Analyze.partitions ?histogram:t.histogram
        ?histogram_buckets:t.histogram_buckets ?mcv:t.mcv ~name relations
  end

let analyze ?(shards = 1) t snapshot =
  {
    snapshot;
    shards;
    analyzed = analyze_rows t ~shards ~name:snapshot.state.name snapshot.rows;
  }

let stage t { snapshot; shards; analyzed } =
  let st = snapshot.state in
  let analyzed =
    if st.version = snapshot.version then analyzed
    else
      (* An insert or delete reached the table after the snapshot, so the
         analysis describes rows that are no longer the table's: analyze
         the live relation instead. *)
      analyze_rows t ~shards ~name:st.name st.live
  in
  st.staged <- Some analyzed;
  st.rows_since_analyze <- 0

let reanalyze ?shards t ~table = stage t (analyze ?shards t (snapshot t ~table))

let corrupt_staged t ~table f =
  let st = find_state t table in
  st.staged <- Some (f (staged_candidate st))

(* --- publish ------------------------------------------------------------ *)

type decision =
  | Serve_fresh of Table.t
  | Serve_backoff of Table.t * string
  | Serve_stale of Table.t * string (* enter/stay in quarantine *)
  | Serve_fallback of Table.t * string (* no good epoch; Repair/Trap rung *)

let publish t =
  (* Phase 1: decide every table without touching any state, so a Strict
     refusal leaves the store exactly as it was (no partial epoch). *)
  let decide st =
    if st.quarantined && st.staged = None && st.backoff > 0 then
      match st.last_good with
      | Some good ->
        Ok
          (Serve_backoff
             ( good,
               Printf.sprintf
                 "stale statistics: quarantined after %d failed audit%s, \
                  serving last-known-good (retry backoff %d)"
                 st.failures
                 (if st.failures = 1 then "" else "s")
                 st.backoff ))
      | None -> assert false (* quarantine is only entered with a good epoch *)
    else begin
      let candidate = staged_candidate st in
      match Validate.check_table candidate with
      | [] -> Ok (Serve_fresh candidate)
      | issue :: _ -> begin
        match st.last_good with
        | Some good ->
          Ok
            (Serve_stale
               ( good,
                 Printf.sprintf
                   "stale statistics: fresh stats failed audit (%s), serving \
                    last-known-good"
                   (Validate.kind_name issue.kind) ))
        | None -> begin
          match t.strictness with
          | Validate.Strict -> Error issue
          | Validate.Repair ->
            Ok
              (Serve_fallback
                 ( freeze (fst (Validate.repair_table candidate)),
                   Printf.sprintf
                     "no good epoch: audit failed (%s), serving repaired \
                      statistics"
                     (Validate.kind_name issue.kind) ))
          | Validate.Trap ->
            Ok
              (Serve_fallback
                 ( candidate,
                   Printf.sprintf
                     "no good epoch: audit failed (%s), serving unrepaired \
                      statistics"
                     (Validate.kind_name issue.kind) ))
        end
      end
    end
  in
  let decisions =
    List.map (fun st -> (st, decide st)) t.states
  in
  match
    List.find_map
      (fun (_, d) -> match d with Error issue -> Some issue | Ok _ -> None)
      decisions
  with
  | Some issue -> Error issue
  | None ->
    (* Phase 2: apply every decision, then swap the epoch reference. *)
    let annotations = ref [] in
    List.iter
      (fun (st, d) ->
        match d with
        | Error _ -> assert false
        | Ok (Serve_fresh tbl) ->
          if st.quarantined then begin
            t.retries <- t.retries + 1;
            t.retry_successes <- t.retry_successes + 1
          end;
          st.published <- tbl;
          st.last_good <- Some tbl;
          st.staged <- None;
          st.quarantined <- false;
          st.failures <- 0;
          st.backoff <- 0
        | Ok (Serve_backoff (tbl, note)) ->
          st.published <- tbl;
          st.backoff <- st.backoff - 1;
          t.stale_served <- t.stale_served + 1;
          annotations := (st.name, note) :: !annotations
        | Ok (Serve_stale (tbl, note)) ->
          if st.quarantined then t.retries <- t.retries + 1
          else t.quarantines <- t.quarantines + 1;
          t.audits_failed <- t.audits_failed + 1;
          st.quarantined <- true;
          st.failures <- st.failures + 1;
          st.backoff <- min 8 (1 lsl min 3 st.failures);
          st.published <- tbl;
          st.staged <- None;
          t.stale_served <- t.stale_served + 1;
          annotations := (st.name, note) :: !annotations
        | Ok (Serve_fallback (tbl, note)) ->
          t.audits_failed <- t.audits_failed + 1;
          t.hard_fallbacks <- t.hard_fallbacks + 1;
          st.published <- tbl;
          st.staged <- None;
          annotations := (st.name, note) :: !annotations)
      decisions;
    t.publishes <- t.publishes + 1;
    let next =
      epoch_of t.states
        ~id:(Epoch.id (pin t) + 1)
        ~annotations:(List.rev !annotations)
    in
    Atomic.set t.current next;
    Ok next

(* --- gauges ------------------------------------------------------------- *)

let table_d_drift (tbl : Table.t) =
  List.fold_left
    (fun acc (_, (s : Stats.Col_stats.t)) ->
      match s.distinct_sketch with
      | None -> acc
      | Some sk ->
        let est = Stats.Hll.estimate sk in
        let d = float_of_int s.distinct in
        Float.max acc (Float.abs (est -. d) /. Float.max 1. d))
    0. tbl.column_stats

let drift t =
  List.map
    (fun st ->
      ( st.name,
        {
          rows_since_analyze = st.rows_since_analyze;
          d_drift = table_d_drift st.published;
        } ))
    t.states

let stats t =
  {
    epoch = Epoch.id (pin t);
    publishes = t.publishes;
    audits_failed = t.audits_failed;
    quarantines = t.quarantines;
    quarantined_now =
      List.length (List.filter (fun st -> st.quarantined) t.states);
    stale_served = t.stale_served;
    retries = t.retries;
    retry_successes = t.retry_successes;
    hard_fallbacks = t.hard_fallbacks;
    delta_inserts = t.delta_inserts;
    delta_deletes = t.delta_deletes;
  }

let pp ppf t =
  let c = stats t in
  Format.fprintf ppf
    "store: epoch %d, %d publishes, %d audits failed, %d quarantined now, %d \
     stale served, %d hard fallbacks, +%d/-%d rows streamed"
    c.epoch c.publishes c.audits_failed c.quarantined_now c.stale_served
    c.hard_fallbacks c.delta_inserts c.delta_deletes
