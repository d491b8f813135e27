(* The versioned catalog store: epoch snapshots, streamed deltas, the
   publish audit ladder (quarantine / backoff / retry / hard fallback)
   and the Distinct_drift audit the sketches enable. *)

let config = Els.Config.with_strictness Catalog.Validate.Repair Els.Config.els

let base_query () =
  let db = Harness.Fault.base_db () in
  let query =
    match Sqlfront.Binder.compile db Harness.Fault.default_sql with
    | Ok q -> q
    | Error msg -> Alcotest.fail msg
  in
  (db, query)

let store_of db = Catalog.Store.create ~histogram:Stats.Histogram.Equi_depth ~mcv:5 db

let estimate_epoch epoch query =
  let profile = Els.prepare_epoch config epoch query in
  Els.Incremental.final_size profile query.Query.tables

let rows_for rng n =
  List.init n (fun _ ->
      [
        Rel.Value.Int (Rel.Prng.int_in rng 1 80);
        Rel.Value.Int (Rel.Prng.int_in rng 1 50);
      ])

(* --- epochs -------------------------------------------------------------- *)

let test_epoch_monotone () =
  let db, _ = base_query () in
  let store = store_of db in
  Alcotest.(check int) "starts at epoch 0" 0
    (Catalog.Epoch.id (Catalog.Store.pin store));
  let last = ref 0 in
  for _ = 1 to 5 do
    Catalog.Store.reanalyze store ~table:"t1";
    match Catalog.Store.publish store with
    | Ok e ->
      Alcotest.(check bool) "strictly increasing" true (Catalog.Epoch.id e > !last);
      last := Catalog.Epoch.id e
    | Error issue ->
      Alcotest.fail (Catalog.Validate.issue_to_string issue)
  done

let test_epoch_tables_stats_only () =
  let db, _ = base_query () in
  let store = store_of db in
  List.iter
    (fun (t : Catalog.Table.t) ->
      Alcotest.(check bool)
        (t.Catalog.Table.name ^ " carries no stored relation") true
        (t.Catalog.Table.data = None))
    (Catalog.Db.tables (Catalog.Epoch.db (Catalog.Store.pin store)))

let test_pinned_reader_bit_identical () =
  let db, query = base_query () in
  let store = store_of db in
  let pinned = Catalog.Store.pin store in
  let before = estimate_epoch pinned query in
  let rng = Rel.Prng.create 5 in
  (* Mutate everything underneath the pinned reader. *)
  Catalog.Store.insert store ~table:"t1" (rows_for rng 40);
  Catalog.Store.delete store ~table:"t2" ~indices:[ 0; 1; 2 ];
  Catalog.Store.reanalyze ~shards:3 store ~table:"t1";
  ignore (Catalog.Store.publish store);
  Catalog.Store.corrupt_staged store ~table:"t3"
    (Harness.Fault.corrupt_table Harness.Fault.Negative_rows);
  ignore (Catalog.Store.publish store);
  let after = estimate_epoch pinned query in
  Alcotest.(check bool)
    (Printf.sprintf "pinned estimate %h stays %h" before after)
    true (Float.equal before after);
  Alcotest.(check bool) "estimates are finite" true (Float.is_finite before)

let test_delta_row_counts_exact () =
  let db, _ = base_query () in
  let store = store_of db in
  let rng = Rel.Prng.create 9 in
  Catalog.Store.insert store ~table:"t1" (rows_for rng 25);
  Catalog.Store.delete store ~table:"t1" ~indices:[ 0; 3; 5; 7; 1000000 ];
  (match Catalog.Store.publish store with
  | Ok _ -> ()
  | Error issue -> Alcotest.fail (Catalog.Validate.issue_to_string issue));
  let live = Catalog.Store.live store ~table:"t1" in
  let published =
    Catalog.Db.find_exn (Catalog.Epoch.db (Catalog.Store.pin store)) "t1"
  in
  Alcotest.(check int)
    "published ‖R‖ equals the live cardinality through the delta path"
    (Rel.Relation.cardinality live)
    published.Catalog.Table.row_count;
  let counters = Catalog.Store.stats store in
  Alcotest.(check int) "inserts counted" 25 counters.Catalog.Store.delta_inserts;
  Alcotest.(check int)
    "deletes counted (out-of-range index ignored)" 4
    counters.Catalog.Store.delta_deletes

let test_drift_gauges_move_and_reset () =
  let db, _ = base_query () in
  let store = store_of db in
  let rng = Rel.Prng.create 11 in
  let gauge () = List.assoc "t1" (Catalog.Store.drift store) in
  Alcotest.(check int) "fresh store: no rows since analyze" 0
    (gauge ()).Catalog.Store.rows_since_analyze;
  Catalog.Store.insert store ~table:"t1" (rows_for rng 30);
  Alcotest.(check int) "insert moves the gauge" 30
    (gauge ()).Catalog.Store.rows_since_analyze;
  Catalog.Store.reanalyze store ~table:"t1";
  Alcotest.(check int) "re-ANALYZE resets it" 0
    (gauge ()).Catalog.Store.rows_since_analyze

(* --- the self-healing ladder --------------------------------------------- *)

let test_quarantine_serves_last_good () =
  let db, query = base_query () in
  let store = store_of db in
  let good =
    Catalog.Db.find_exn (Catalog.Epoch.db (Catalog.Store.pin store)) "t1"
  in
  Catalog.Store.corrupt_staged store ~table:"t1"
    (Harness.Fault.corrupt_table Harness.Fault.Negative_rows);
  let epoch =
    match Catalog.Store.publish store with
    | Ok e -> e
    | Error issue -> Alcotest.fail (Catalog.Validate.issue_to_string issue)
  in
  let served = Catalog.Db.find_exn (Catalog.Epoch.db epoch) "t1" in
  Alcotest.(check int)
    "last-known-good row count served, not the corrupt one"
    good.Catalog.Table.row_count served.Catalog.Table.row_count;
  (match Catalog.Epoch.annotations_for epoch "t1" with
  | [] -> Alcotest.fail "quarantined table carries no staleness annotation"
  | note :: _ ->
    Alcotest.(check bool)
      "annotation names the audit failure" true
      (Helpers.contains note "failed audit"));
  let c = Catalog.Store.stats store in
  Alcotest.(check int) "audit failure counted" 1 c.Catalog.Store.audits_failed;
  Alcotest.(check int) "quarantine counted" 1 c.Catalog.Store.quarantines;
  Alcotest.(check int) "currently quarantined" 1 c.Catalog.Store.quarantined_now;
  Alcotest.(check int) "stale serve counted" 1 c.Catalog.Store.stale_served;
  (* The staleness must surface on the explain card. *)
  let sink = Obs.Derivation.create () in
  let profile = Els.prepare_epoch config epoch query in
  ignore (Els.Incremental.derive profile sink query.Query.tables);
  let card = Format.asprintf "%a" Obs.Derivation.pp_card sink in
  Alcotest.(check bool)
    "derivation card carries the staleness note" true
    (Helpers.contains card "note:" && Helpers.contains card "t1")

let test_backoff_then_retry_recovers () =
  let db, _ = base_query () in
  let store = store_of db in
  Catalog.Store.corrupt_staged store ~table:"t1"
    (Harness.Fault.corrupt_table Harness.Fault.Negative_rows);
  ignore (Catalog.Store.publish store);
  (* failures=1 → backoff 2: the next two publishes skip the re-audit and
     keep serving last-known-good, the third re-audits and recovers. *)
  let annotated_publish () =
    match Catalog.Store.publish store with
    | Ok e -> Catalog.Epoch.annotations_for e "t1" <> []
    | Error issue -> Alcotest.fail (Catalog.Validate.issue_to_string issue)
  in
  Alcotest.(check bool) "backoff publish 1 still annotated" true
    (annotated_publish ());
  Alcotest.(check bool) "backoff publish 2 still annotated" true
    (annotated_publish ());
  Alcotest.(check bool) "retry publish is clean" false (annotated_publish ());
  let c = Catalog.Store.stats store in
  Alcotest.(check int) "retry counted" 1 c.Catalog.Store.retries;
  Alcotest.(check int) "retry recovered" 1 c.Catalog.Store.retry_successes;
  Alcotest.(check int) "quarantine exited" 0 c.Catalog.Store.quarantined_now;
  Alcotest.(check int)
    "three stale serves along the way" 3 c.Catalog.Store.stale_served

let test_repeat_corruption_deepens_backoff () =
  let db, _ = base_query () in
  let store = store_of db in
  let corrupt_and_publish () =
    Catalog.Store.corrupt_staged store ~table:"t1"
      (Harness.Fault.corrupt_table Harness.Fault.Negative_rows);
    ignore (Catalog.Store.publish store)
  in
  corrupt_and_publish ();
  corrupt_and_publish ();
  let c = Catalog.Store.stats store in
  Alcotest.(check int) "one quarantine entry" 1 c.Catalog.Store.quarantines;
  Alcotest.(check int)
    "second corrupt publish is a failed retry" 1 c.Catalog.Store.retries;
  Alcotest.(check int) "no recovery yet" 0 c.Catalog.Store.retry_successes;
  Alcotest.(check int) "both audits failed" 2 c.Catalog.Store.audits_failed

(* A store whose table is corrupt from the start has no last-known-good
   epoch: the hard-fallback rung is governed by the store's strictness. *)
let corrupt_from_birth strictness =
  let db = Catalog.Db.create () in
  let rel =
    Rel.Relation.of_tuples
      (Rel.Schema.make
         [ Rel.Schema.column ~table:"t" ~name:"a" Rel.Value.Ty_int ])
      (List.init 20 (fun i -> Rel.Tuple.of_list [ Rel.Value.Int (i mod 5) ]))
  in
  Catalog.Db.add db
    (Catalog.Table.stored ~name:"t" ~row_count:20
       ~column_stats:[ ("a", Stats.Col_stats.trivial ~distinct:1000) ]
       rel);
  Catalog.Store.create ~strictness db

let test_hard_fallback_strict_refuses () =
  let store = corrupt_from_birth Catalog.Validate.Strict in
  (match Catalog.Store.publish store with
  | Error issue ->
    Alcotest.(check bool)
      "refusal names the distinct overflow" true
      (issue.Catalog.Validate.kind = Catalog.Validate.Distinct_exceeds_rows)
  | Ok _ -> Alcotest.fail "strict store published corrupt stats with no good epoch");
  let c = Catalog.Store.stats store in
  Alcotest.(check int) "nothing published" 0 c.Catalog.Store.publishes;
  Alcotest.(check int) "epoch unchanged" 0 c.Catalog.Store.epoch

let test_hard_fallback_repair_serves_repaired () =
  let store = corrupt_from_birth Catalog.Validate.Repair in
  let epoch =
    match Catalog.Store.publish store with
    | Ok e -> e
    | Error issue -> Alcotest.fail (Catalog.Validate.issue_to_string issue)
  in
  let served = Catalog.Db.find_exn (Catalog.Epoch.db epoch) "t" in
  Alcotest.(check bool)
    "distinct clamped into [0, rows]" true
    ((Catalog.Table.col_stats_exn served "a").Stats.Col_stats.distinct <= 20);
  (match Catalog.Epoch.annotations_for epoch "t" with
  | [] -> Alcotest.fail "hard fallback carries no annotation"
  | note :: _ ->
    Alcotest.(check bool) "notes the missing good epoch" true
      (Helpers.contains note "no good epoch"));
  Alcotest.(check int)
    "hard fallback counted" 1 (Catalog.Store.stats store).Catalog.Store.hard_fallbacks

let test_hard_fallback_trap_serves_as_is () =
  let store = corrupt_from_birth Catalog.Validate.Trap in
  let epoch =
    match Catalog.Store.publish store with
    | Ok e -> e
    | Error issue -> Alcotest.fail (Catalog.Validate.issue_to_string issue)
  in
  let served = Catalog.Db.find_exn (Catalog.Epoch.db epoch) "t" in
  Alcotest.(check int)
    "trap serves the corrupt distinct unrepaired" 1000
    (Catalog.Table.col_stats_exn served "a").Stats.Col_stats.distinct;
  Alcotest.(check bool)
    "but still annotates" true
    (Catalog.Epoch.annotations_for epoch "t" <> [])

let test_store_rejects_stats_only () =
  let db = Catalog.Db.create () in
  Catalog.Db.add db (Helpers.stats_table "t" 100 [ ("a", 10) ]);
  match Catalog.Store.create db with
  | (_ : Catalog.Store.t) -> Alcotest.fail "stats-only table accepted"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "names the table" true (Helpers.contains msg "t")

(* The store streams deltas into relations of its own: the catalog it was
   created over keeps its rows, and so its row counts audit clean. *)
let test_caller_relations_untouched () =
  let db, _ = base_query () in
  let store = store_of db in
  Catalog.Store.insert store ~table:"t1" (rows_for (Rel.Prng.create 3) 10);
  Catalog.Store.delete store ~table:"t1" ~indices:(List.init 50 Fun.id);
  Alcotest.(check int) "the store's t1" 260
    (Rel.Relation.cardinality (Catalog.Store.live store ~table:"t1"));
  let t1 = Catalog.Db.find_exn db "t1" in
  Alcotest.(check int) "the caller's t1" 300
    (Rel.Relation.cardinality (Catalog.Db.relation_exn db "t1"));
  Alcotest.(check (list string)) "the caller's t1 audits clean" []
    (List.map Catalog.Validate.issue_to_string (Catalog.Validate.check_table t1))

(* A snapshot and a live copy share the row array, so on a warmed-up
   store neither puts a word straight into the major heap. *)
let test_copies_allocate_no_rows () =
  let schema =
    Rel.Schema.make [ Rel.Schema.column ~table:"big" ~name:"k" Rel.Value.Ty_int ]
  in
  let rel = Rel.Relation.create schema in
  for i = 0 to 99_999 do
    Rel.Relation.insert_values rel [ Rel.Value.Int (i mod 977) ]
  done;
  let db = Catalog.Db.create () in
  ignore (Catalog.Analyze.register db ~name:"big" rel : Catalog.Table.t);
  let store = Catalog.Store.create db in
  let copy () =
    ( Catalog.Store.snapshot store ~table:"big",
      Catalog.Store.live store ~table:"big" )
  in
  ignore (Sys.opaque_identity (copy ()));
  let _, promoted0, major0 = Gc.counters () in
  let copies = List.init 10 (fun _ -> copy ()) in
  let _, promoted1, major1 = Gc.counters () in
  ignore (Sys.opaque_identity copies);
  Alcotest.(check (float 0.)) "words straight into the major heap" 0.
    (major1 -. major0 -. (promoted1 -. promoted0));
  List.iter
    (fun (_, live) ->
      Alcotest.(check int) "a copy holds every row" 100_000
        (Rel.Relation.cardinality live))
    copies

(* --- Distinct_drift ------------------------------------------------------ *)

let drifted_table () =
  let sketch =
    Stats.Hll.of_values (Array.init 200 (fun i -> Rel.Value.Int (i + 1)))
  in
  let stats =
    {
      Stats.Col_stats.distinct = 2;
      nulls = 0;
      min_value = Some (Rel.Value.Int 1);
      max_value = Some (Rel.Value.Int 200);
      histogram = None;
      mcv = None;
      distinct_sketch = Some sketch;
      degree = None;
    }
  in
  Catalog.Table.stats_only ~name:"t"
    ~schema:
      (Rel.Schema.make
         [ Rel.Schema.column ~table:"t" ~name:"a" Rel.Value.Ty_int ])
    ~row_count:500 ~column_stats:[ ("a", stats) ]

let test_distinct_drift_detected_and_repaired () =
  let table = drifted_table () in
  (match Catalog.Validate.check_table table with
  | [ issue ] ->
    Alcotest.(check bool) "kind is distinct-drift" true
      (issue.Catalog.Validate.kind = Catalog.Validate.Distinct_drift);
    Alcotest.(check string) "kind name" "distinct-drift"
      (Catalog.Validate.kind_name issue.Catalog.Validate.kind)
  | issues ->
    Alcotest.fail
      (Printf.sprintf "expected exactly the drift issue, got %d" (List.length issues)));
  let repaired, _ = Catalog.Validate.repair_table table in
  let d = (Catalog.Table.col_stats_exn repaired "a").Stats.Col_stats.distinct in
  Alcotest.(check bool)
    (Printf.sprintf "repair adopts the sketch estimate (got %d)" d)
    true
    (d >= 180 && d <= 220)

let test_distinct_drift_tolerates_accurate_stats () =
  (* A freshly analyzed column records d and the sketch together: no
     drift issue may fire on its own output. *)
  let values = Array.init 1000 (fun i -> Rel.Value.Int (i mod 137)) in
  let rel =
    Rel.Relation.of_tuples
      (Rel.Schema.make
         [ Rel.Schema.column ~table:"t" ~name:"a" Rel.Value.Ty_int ])
      (List.map (fun v -> Rel.Tuple.of_list [ v ]) (Array.to_list values))
  in
  let table = Catalog.Analyze.table ~name:"t" rel in
  Alcotest.(check (list Alcotest.string))
    "clean audit" []
    (List.map Catalog.Validate.issue_to_string
       (Catalog.Validate.check_table table))

(* --- re-ANALYZE in three phases ------------------------------------------ *)

(* Every table of the current epoch, serialized: equal strings are
   bit-identical statistics. *)
let epoch_bytes store =
  Marshal.to_string
    (Catalog.Db.tables (Catalog.Epoch.db (Catalog.Store.pin store)))
    [ Marshal.No_sharing ]

let publish_ok store =
  match Catalog.Store.publish store with
  | Ok _ -> ()
  | Error issue -> Alcotest.fail (Catalog.Validate.issue_to_string issue)

(* Two stores over the same catalog, given the same deltas, so the only
   difference between them is how the test re-analyzes. *)
let twin_stores () =
  let store () =
    let db, _ = base_query () in
    let store = store_of db in
    let rng = Rel.Prng.create 17 in
    Catalog.Store.insert store ~table:"t1" (rows_for rng 40);
    Catalog.Store.delete store ~table:"t2" ~indices:[ 1; 4; 9 ];
    store
  in
  (store (), store ())

let test_phases_equal_reanalyze () =
  List.iter
    (fun shards ->
      let whole, phased = twin_stores () in
      List.iter
        (fun table -> Catalog.Store.reanalyze ~shards whole ~table)
        [ "t1"; "t2" ];
      (* Snapshots of both tables, then a publish and a pin between the
         phases: neither writes a table, so neither may change what is
         staged. *)
      let snaps =
        List.map
          (fun table -> Catalog.Store.snapshot phased ~table)
          [ "t1"; "t2" ]
      in
      publish_ok phased;
      ignore (Catalog.Store.pin phased);
      let analyses = List.map (Catalog.Store.analyze ~shards phased) snaps in
      List.iter (Catalog.Store.stage phased) analyses;
      publish_ok whole;
      publish_ok phased;
      Alcotest.(check bool)
        (Printf.sprintf "shards=%d: phased statistics = reanalyze's" shards)
        true
        (epoch_bytes whole = epoch_bytes phased))
    [ 1; 3 ]

let test_writes_between_phases_kept () =
  let rng = Rel.Prng.create 23 in
  let extra = rows_for rng 30 in
  let writes =
    [
      ("insert", fun store -> Catalog.Store.insert store ~table:"t1" extra);
      ( "delete",
        fun store -> Catalog.Store.delete store ~table:"t1" ~indices:[ 0; 3; 5 ]
      );
      ( "insert and delete",
        fun store ->
          Catalog.Store.insert store ~table:"t1" extra;
          Catalog.Store.delete store ~table:"t1" ~indices:[ 0; 3; 5 ] );
    ]
  in
  List.iter
    (fun (what, write) ->
      let whole, phased = twin_stores () in
      write whole;
      Catalog.Store.reanalyze ~shards:2 whole ~table:"t1";
      let snap = Catalog.Store.snapshot phased ~table:"t1" in
      write phased;
      Catalog.Store.stage phased (Catalog.Store.analyze ~shards:2 phased snap);
      publish_ok whole;
      publish_ok phased;
      let published =
        Catalog.Db.find_exn (Catalog.Epoch.db (Catalog.Store.pin phased)) "t1"
      in
      Alcotest.(check int)
        (what ^ ": published ‖R‖ = live cardinality")
        (Rel.Relation.cardinality (Catalog.Store.live phased ~table:"t1"))
        published.Catalog.Table.row_count;
      let since store =
        (List.assoc "t1" (Catalog.Store.drift store))
          .Catalog.Store.rows_since_analyze
      in
      Alcotest.(check int)
        (what ^ ": rows since analyze as reanalyze leaves them")
        (since whole) (since phased);
      Alcotest.(check bool)
        (what ^ ": statistics = a reanalyze after the write")
        true
        (epoch_bytes whole = epoch_bytes phased))
    writes

let phase_suite =
  [
    Alcotest.test_case "store: three phases = reanalyze" `Quick
      test_phases_equal_reanalyze;
    Alcotest.test_case "store: writes between snapshot and stage kept" `Quick
      test_writes_between_phases_kept;
  ]

(* --- property: random mutation storm never tears a pinned reader --------- *)

let gen_storm =
  QCheck2.Gen.(
    let* seed = int_range 0 10000 in
    let* ops = int_range 1 25 in
    return (seed, ops))

let prop_pinned_estimate_survives_storm =
  QCheck2.Test.make ~count:40
    ~name:"pinned epoch estimate bit-identical under mutation storms"
    ~print:(fun (seed, ops) -> Printf.sprintf "seed=%d ops=%d" seed ops)
    gen_storm
    (fun (seed, ops) ->
      let db, query = base_query () in
      let store = store_of db in
      let rng = Rel.Prng.create seed in
      let tables = [ "t1"; "t2"; "t3" ] in
      let pinned = Catalog.Store.pin store in
      let before = estimate_epoch pinned query in
      for _ = 1 to ops do
        let table = List.nth tables (Rel.Prng.int rng 3) in
        match Rel.Prng.int rng 5 with
        | 0 -> Catalog.Store.insert store ~table (rows_for rng (Rel.Prng.int_in rng 1 15))
        | 1 ->
          Catalog.Store.delete store ~table
            ~indices:(List.init (Rel.Prng.int_in rng 1 5) (fun _ -> Rel.Prng.int rng 200))
        | 2 ->
          Catalog.Store.reanalyze ~shards:(Rel.Prng.int_in rng 1 4) store ~table
        | 3 ->
          Catalog.Store.corrupt_staged store ~table
            (Harness.Fault.corrupt_table Harness.Fault.Negative_rows);
          ignore (Catalog.Store.publish store)
        | _ -> ignore (Catalog.Store.publish store)
      done;
      Float.equal before (estimate_epoch pinned query))

(* --- property: a delete removes exactly the in-range indices ------------- *)

(* A random two-column relation (NULLs included) and an index list with
   duplicates, negative and out-of-range values. *)
let gen_delete =
  QCheck2.Gen.(
    let value = map (fun v -> if v = 0 then None else Some v) (int_range 0 9) in
    let* rows = list_size (int_range 0 40) (pair (int_range (-3) 20) value) in
    let n = List.length rows in
    let* indices = list_size (int_range 0 30) (int_range (-4) (n + 4)) in
    return (rows, indices))

let print_delete (rows, indices) =
  Printf.sprintf "%d rows, indices [%s]" (List.length rows)
    (String.concat "; " (List.map string_of_int indices))

let prop_delete_exact =
  QCheck2.Test.make ~count:200
    ~name:"delete keeps every other row, in order, and counts distinct hits"
    ~print:print_delete gen_delete
    (fun (rows, indices) ->
      let schema =
        Rel.Schema.make
          [
            Rel.Schema.column ~table:"r" ~name:"k" Rel.Value.Ty_int;
            Rel.Schema.column ~table:"r" ~name:"v" Rel.Value.Ty_int;
          ]
      in
      let value = function Some v -> Rel.Value.Int v | None -> Rel.Value.Null in
      let old_rows =
        List.map
          (fun (k, v) -> Rel.Tuple.of_list [ Rel.Value.Int k; value v ])
          rows
      in
      let db = Catalog.Db.create () in
      ignore
        (Catalog.Analyze.register db ~name:"r"
           (Rel.Relation.of_tuples schema old_rows));
      let store = Catalog.Store.create db in
      let deletes () =
        (Catalog.Store.stats store).Catalog.Store.delta_deletes
      in
      let before = deletes () in
      Catalog.Store.delete store ~table:"r" ~indices;
      let expected =
        List.filteri (fun i _ -> not (List.mem i indices)) old_rows
      in
      let hits =
        List.length
          (List.sort_uniq Int.compare
             (List.filter (fun i -> i >= 0 && i < List.length rows) indices))
      in
      let live = Rel.Relation.to_list (Catalog.Store.live store ~table:"r") in
      List.length live = List.length expected
      && List.for_all2 Rel.Tuple.equal live expected
      && deletes () - before = hits)

let suite =
  [
    Alcotest.test_case "store: epoch ids strictly increase" `Quick
      test_epoch_monotone;
    Alcotest.test_case "store: epochs are stats-only" `Quick
      test_epoch_tables_stats_only;
    Alcotest.test_case "store: pinned reader is bit-identical" `Quick
      test_pinned_reader_bit_identical;
    Alcotest.test_case "store: delta row counts exact" `Quick
      test_delta_row_counts_exact;
    Alcotest.test_case "store: drift gauges move and reset" `Quick
      test_drift_gauges_move_and_reset;
    Alcotest.test_case "store: quarantine serves last-known-good" `Quick
      test_quarantine_serves_last_good;
    Alcotest.test_case "store: backoff then retry recovers" `Quick
      test_backoff_then_retry_recovers;
    Alcotest.test_case "store: repeat corruption deepens backoff" `Quick
      test_repeat_corruption_deepens_backoff;
    Alcotest.test_case "store: strict hard fallback refuses" `Quick
      test_hard_fallback_strict_refuses;
    Alcotest.test_case "store: repair hard fallback repairs" `Quick
      test_hard_fallback_repair_serves_repaired;
    Alcotest.test_case "store: trap hard fallback serves as-is" `Quick
      test_hard_fallback_trap_serves_as_is;
    Alcotest.test_case "store: rejects stats-only tables" `Quick
      test_store_rejects_stats_only;
    Alcotest.test_case "store: caller's relations untouched" `Quick
      test_caller_relations_untouched;
    Alcotest.test_case "store: snapshot and live copy no rows" `Quick
      test_copies_allocate_no_rows;
    Alcotest.test_case "validate: distinct drift detected and repaired" `Quick
      test_distinct_drift_detected_and_repaired;
    Alcotest.test_case "validate: no drift on fresh ANALYZE output" `Quick
      test_distinct_drift_tolerates_accurate_stats;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_pinned_estimate_survives_storm; prop_delete_exact ]
