(* The estimation service: protocol parsing totality, admission control,
   crash isolation and deadline behaviour, driven through the exact
   [Serve.Server.session] loop that [elsdb serve] runs — over pipe pairs,
   like the chaos harness but with hand-picked frames and deterministic
   clocks. *)

let sql = Harness.Fault.default_sql

(* --- protocol parsing --- *)

let test_protocol_parse () =
  let parse = Serve.Protocol.parse in
  (match parse (Printf.sprintf {|{"id":"a","op":"estimate","sql":"%s"}|} sql) with
  | Ok { Serve.Protocol.id = Some "a"; op = Estimate { sql = got; _ }; _ } ->
    Alcotest.(check string) "sql carried" sql got
  | Ok _ -> Alcotest.fail "parsed to the wrong request"
  | Error (_, e) -> Alcotest.failf "refused: %s" (Els.Els_error.to_string e));
  (* unknown ops are refused but still echo the id *)
  (match parse {|{"id":"b","op":"estimaet","sql":"x"}|} with
  | Error (Some "b", Els.Els_error.Invalid_query _) -> ()
  | Error _ -> Alcotest.fail "lost the id on an unknown op"
  | Ok _ -> Alcotest.fail "accepted an unknown op");
  (* unsupported protocol versions are refused with the id *)
  (match parse {|{"id":"c","v":99,"op":"health"}|} with
  | Error (Some "c", Els.Els_error.Invalid_query _) -> ()
  | Error _ | Ok _ -> Alcotest.fail "accepted protocol version 99");
  (* a frame that is valid JSON but not an object is anonymous *)
  (match parse "12345" with
  | Error (None, Els.Els_error.Invalid_query _) -> ()
  | Error _ | Ok _ -> Alcotest.fail "accepted a non-object frame");
  (* damaged JSON is a parse error, not an exception *)
  (match parse "{\"id\": \"d\", " with
  | Error (None, Els.Els_error.Parse_error _) -> ()
  | Error _ | Ok _ -> Alcotest.fail "accepted truncated JSON");
  (* oversized frames are refused before parsing *)
  (match parse ~max_frame_bytes:16 (String.make 64 'x') with
  | Error (None, Els.Els_error.Parse_error _) -> ()
  | Error _ | Ok _ -> Alcotest.fail "accepted an oversized frame");
  (* adversarially deep nesting is a parse error, not a stack overflow *)
  (match parse (String.make 10_000 '[') with
  | Error (None, Els.Els_error.Parse_error _) -> ()
  | Error _ | Ok _ -> Alcotest.fail "accepted pathological nesting");
  (* bad budgets are refused with the id *)
  match parse {|{"id":"e","op":"health","deadline_ms":-1}|} with
  | Error (Some "e", Els.Els_error.Invalid_query _) -> ()
  | Error _ | Ok _ -> Alcotest.fail "accepted a negative deadline"

(* --- session plumbing --- *)

type resp = {
  rid : string option;
  ok : bool;
  kind : string option;
  top : (string * Obs.Json.t) list;  (** top-level response fields *)
  err : (string * Obs.Json.t) list;  (** fields inside the error object *)
}

let parse_response line =
  match Obs.Json.of_string line with
  | Error e -> Alcotest.failf "unparseable response %S: %s" line e
  | Ok (Obs.Json.Obj top as json) ->
    let rid =
      match Obs.Json.member "id" json with
      | Some (Obs.Json.String s) -> Some s
      | _ -> None
    in
    let ok = Obs.Json.member "ok" json = Some (Obs.Json.Bool true) in
    let err =
      match Obs.Json.member "error" json with
      | Some (Obs.Json.Obj fields) -> fields
      | _ -> []
    in
    let kind =
      match List.assoc_opt "kind" err with
      | Some (Obs.Json.String k) -> Some k
      | _ -> None
    in
    { rid; ok; kind; top; err }
  | Ok _ -> Alcotest.failf "non-object response %S" line

(* Write every frame up front, close the request pipe, run the real
   session loop to completion, then read the response stream back. The
   response pipe's kernel buffer holds a small session's worth of output,
   so no concurrent reader is needed here (the chaos harness covers the
   streaming case). *)
let serve_db () = Harness.Fault.base_db ~seed:11 ()

let drive_server server frames =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let wc = Unix.out_channel_of_descr in_w in
  List.iter
    (fun f ->
      output_string wc f;
      output_char wc '\n')
    frames;
  close_out wc;
  let ic = Unix.in_channel_of_descr in_r in
  let oc = Unix.out_channel_of_descr out_w in
  let stats = Serve.Server.session server ic oc in
  close_out oc;
  close_in ic;
  let rc = Unix.in_channel_of_descr out_r in
  let rec read acc =
    match input_line rc with
    | line -> read (parse_response line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let responses = read [] in
  close_in rc;
  (stats, responses)

let drive ?config frames =
  drive_server (Serve.Server.create ?config (serve_db ())) frames

let number = function
  | Obs.Json.Float x -> x
  | Obs.Json.Int n -> float_of_int n
  | _ -> Alcotest.fail "expected a number"

let by_id responses id =
  match List.find_opt (fun r -> r.rid = Some id) responses with
  | Some r -> r
  | None -> Alcotest.failf "no response for id %S" id

(* --- the happy path: every op answered, ids echoed, drain counted --- *)

let test_session_basic () =
  let frames =
    [
      {|{"id":"h","op":"health"}|};
      Printf.sprintf {|{"id":"e1","op":"estimate","sql":"%s"}|} sql;
      Printf.sprintf
        {|{"id":"x","op":"explain","sql":"%s","enumerator":"greedy"}|} sql;
      Printf.sprintf {|{"id":"r","op":"run","sql":"%s"}|} sql;
      {|{"id":"a","op":"analyze"}|};
      {|{"id":"d","op":"drain"}|};
    ]
  in
  let server = Serve.Server.create (serve_db ()) in
  let pin () = Catalog.Store.pin (Serve.Server.store server) in
  let before = pin () in
  let stats, responses = drive_server server frames in
  let after = pin () in
  List.iter
    (fun id -> Alcotest.(check bool) (id ^ " ok") true (by_id responses id).ok)
    [ "h"; "e1"; "x"; "r"; "a"; "d" ];
  (* The estimate is the last intermediate size, and bit-identical to
     Els.estimate on the epoch the request pinned (the analyze op
     publishes a new one, so that is either side of the session). *)
  let e1 = (by_id responses "e1").top in
  let estimate = number (List.assoc "estimate" e1) in
  (match List.assoc "sizes" e1 with
  | Obs.Json.List (_ :: _ as sizes) ->
    let last = List.nth sizes (List.length sizes - 1) in
    Alcotest.(check bool) "estimate = last size" true
      (Float.equal estimate (number last))
  | _ -> Alcotest.fail "estimate response lacks sizes");
  let pinned =
    match List.assoc "epoch" e1 with
    | Obs.Json.Int id when id = Catalog.Epoch.id before -> before
    | Obs.Json.Int id when id = Catalog.Epoch.id after -> after
    | _ -> Alcotest.fail "estimate response names an unknown epoch"
  in
  let edb = Catalog.Epoch.db pinned in
  let query =
    match Sqlfront.Binder.compile edb sql with
    | Ok q -> q
    | Error msg -> Alcotest.fail msg
  in
  Alcotest.(check bool) "estimate = Els.estimate on the pinned epoch" true
    (Float.equal estimate
       (Els.estimate Els.Config.els edb query query.Query.tables));
  Alcotest.(check int) "all answered" 6 (List.length responses);
  Alcotest.(check int) "frames" 6 stats.Serve.Server.frames;
  Alcotest.(check int) "no internal errors" 0
    stats.Serve.Server.internal_errors;
  Alcotest.(check bool) "drained" true stats.Serve.Server.drained;
  (* the explain response discloses the anytime rung it was served from *)
  Alcotest.(check bool) "explain discloses rung" true
    (List.mem_assoc "rung" (by_id responses "x").top);
  (* analyze discloses how many columns carry degree statistics; the
     freshly-analyzed catalog must have collected some *)
  (match List.assoc_opt "degree_columns" (by_id responses "a").top with
  | Some (Obs.Json.Int n) ->
    Alcotest.(check bool) "analyze reports degree columns" true (n > 0)
  | _ -> Alcotest.fail "analyze response lacks integer degree_columns")

(* --- admission control: post-drain frames are shed, never dropped --- *)

let test_session_shed_after_drain () =
  let frames =
    [
      {|{"id":"d","op":"drain"}|};
      Printf.sprintf {|{"id":"late1","op":"estimate","sql":"%s"}|} sql;
      Printf.sprintf {|{"id":"late2","op":"run","sql":"%s"}|} sql;
    ]
  in
  let stats, responses = drive frames in
  Alcotest.(check bool) "drain ok" true (by_id responses "d").ok;
  List.iter
    (fun id ->
      let r = by_id responses id in
      Alcotest.(check bool) (id ^ " refused") false r.ok;
      Alcotest.(check (option string)) (id ^ " kind") (Some "overloaded") r.kind;
      Alcotest.(check bool) (id ^ " policy disclosed") true
        (List.assoc_opt "shed_policy" r.err
        = Some (Obs.Json.String "draining")))
    [ "late1"; "late2" ];
  Alcotest.(check int) "shed counted" 2 stats.Serve.Server.shed;
  Alcotest.(check int) "sheds are answers" 3 (List.length responses)

(* --- crash isolation: damage is refused, the worker survives --- *)

let test_session_damage_isolated () =
  let config =
    { Serve.Server.default_config with Serve.Server.max_frame_bytes = 256 }
  in
  let frames =
    [
      "this is not json";
      String.make 512 'x';
      {|{"id":"typo","op":"estimaet"}|};
      {|{"id":"nosql","op":"estimate"}|};
      {|{"id":"badtbl","op":"estimate","sql":"SELECT COUNT(*) FROM nowhere"}|};
      Printf.sprintf {|{"id":"fine","op":"estimate","sql":"%s"}|} sql;
      {|{"id":"d","op":"drain"}|};
    ]
  in
  let stats, responses = drive ~config frames in
  Alcotest.(check int) "every frame answered" 7 (List.length responses);
  (* the two id-less damaged frames got anonymous structured refusals *)
  Alcotest.(check int) "anonymous refusals" 2
    (List.length (List.filter (fun r -> r.rid = None) responses));
  List.iter
    (fun id -> Alcotest.(check bool) (id ^ " refused") false (by_id responses id).ok)
    [ "typo"; "nosql"; "badtbl" ];
  Alcotest.(check bool) "healthy request still served" true
    (by_id responses "fine").ok;
  Alcotest.(check bool) "drain completed" true (by_id responses "d").ok;
  Alcotest.(check int) "firewall never fired" 0
    stats.Serve.Server.internal_errors

(* --- deadlines: a mid-query budget trip is a structured answer with the
   anytime rung disclosed, and the worker lives on (fake clock, so the
   trip is deterministic — no real time involved) --- *)

let test_session_budget_trip () =
  (* Every budget-clock call advances 2 ms of fake time, so a 10 ms
     deadline survives admission and the dequeue check but trips inside
     optimize/execute — deterministically, on call count alone. *)
  let tick = ref 0.0 in
  let clock () =
    let v = !tick in
    tick := v +. 0.002;
    v
  in
  let config =
    {
      Serve.Server.default_config with
      Serve.Server.domains = 1;
      clock = Some clock;
    }
  in
  let frames =
    [
      Printf.sprintf {|{"id":"slow","op":"run","sql":"%s","deadline_ms":10}|}
        sql;
      Printf.sprintf {|{"id":"after","op":"estimate","sql":"%s"}|} sql;
      {|{"id":"d","op":"drain"}|};
    ]
  in
  let stats, responses = drive ~config frames in
  let slow = by_id responses "slow" in
  Alcotest.(check bool) "tripped request refused" false slow.ok;
  Alcotest.(check (option string)) "budget-exhausted" (Some "budget-exhausted")
    slow.kind;
  (* the refusal discloses which anytime rung the optimizer degraded to
     before the executor cancelled *)
  Alcotest.(check bool) "rung in provenance" true
    (List.mem_assoc "rung" slow.err);
  Alcotest.(check bool) "worker survived: next request ok" true
    (by_id responses "after").ok;
  Alcotest.(check bool) "drain completed" true (by_id responses "d").ok;
  Alcotest.(check int) "trip counted" 1 stats.Serve.Server.budget_trips;
  Alcotest.(check int) "not an internal error" 0
    stats.Serve.Server.internal_errors

(* --- a query too big for the optimizer is a structured refusal, not an
   internal error: DP stops at 20 tables (greedy and random walk do not),
   the profile's bitset index at 62 --- *)

let self_join_sql n =
  let aliases = List.init n (fun i -> Printf.sprintf "a%d" (i + 1)) in
  let links =
    List.init (n - 1) (fun i -> Printf.sprintf "a%d.s = a%d.s" (i + 1) (i + 2))
  in
  Printf.sprintf "SELECT COUNT(*) FROM %s WHERE %s"
    (String.concat ", " (List.map (fun a -> "s " ^ a) aliases))
    (String.concat " AND " links)

let test_session_too_many_tables () =
  let frames =
    [
      Printf.sprintf {|{"id":"dp21","op":"explain","sql":"%s"}|}
        (self_join_sql 21);
      Printf.sprintf
        {|{"id":"greedy21","op":"explain","sql":"%s","enumerator":"greedy"}|}
        (self_join_sql 21);
      Printf.sprintf
        {|{"id":"random21","op":"explain","sql":"%s","enumerator":"random"}|}
        (self_join_sql 21);
      Printf.sprintf {|{"id":"dp63","op":"explain","sql":"%s"}|}
        (self_join_sql 63);
      {|{"id":"d","op":"drain"}|};
    ]
  in
  let server =
    Serve.Server.create (Datagen.Section8.build ~scale:100 ~seed:1 ())
  in
  let stats, responses = drive_server server frames in
  let dp21 = by_id responses "dp21" in
  Alcotest.(check bool) "21 tables under dp refused" false dp21.ok;
  Alcotest.(check (option string)) "21 tables: invalid-query"
    (Some "invalid-query") dp21.kind;
  Alcotest.(check bool) "21 tables under greedy answered" true
    (by_id responses "greedy21").ok;
  Alcotest.(check bool) "21 tables under random walk answered" true
    (by_id responses "random21").ok;
  let dp63 = by_id responses "dp63" in
  Alcotest.(check bool) "63 tables refused" false dp63.ok;
  Alcotest.(check (option string)) "63 tables: invalid-query"
    (Some "invalid-query") dp63.kind;
  Alcotest.(check bool) "drain completed" true (by_id responses "d").ok;
  Alcotest.(check int) "firewall never fired" 0
    stats.Serve.Server.internal_errors

(* --- run executes against the live relations --- *)

(* Every table over the store's live relations: what a fresh COUNT reads. *)
let live_db server =
  Catalog.Store.live_db (Serve.Server.store server)
    ~tables:
      (List.map
         (fun (tbl : Catalog.Table.t) -> tbl.name)
         (Catalog.Db.tables (Serve.Server.db server)))

let test_run_counts_live_rows () =
  let server = Serve.Server.create (serve_db ()) in
  Catalog.Store.delete (Serve.Server.store server) ~table:"t1"
    ~indices:(List.init 250 Fun.id);
  let _, responses =
    drive_server server
      [
        Printf.sprintf {|{"id":"r","op":"run","sql":"%s"}|} sql;
        {|{"id":"d","op":"drain"}|};
      ]
  in
  let count db =
    Exec.Executor.count_query db (Sqlfront.Binder.compile_exn db sql)
  in
  let live = count (live_db server) in
  Alcotest.(check bool) "the delete changes the count" true
    (live <> count (Serve.Server.db server));
  let r = by_id responses "r" in
  Alcotest.(check bool) "run ok" true r.ok;
  Alcotest.(check int) "rows = COUNT over the live relations" live
    (int_of_float (number (List.assoc "rows" r.top)))

(* --- the catalog lock is for writers only --- *)

(* A session on a thread of its own, fed and read one frame at a time, so
   a test can act between frames. [recv] gives up at [deadline]. *)
type open_session = {
  send : string -> unit;
  recv : deadline:float -> resp option;
  close : unit -> unit;
}

let open_session server =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let thread =
    Thread.create
      (fun () ->
        let ic = Unix.in_channel_of_descr in_r in
        let oc = Unix.out_channel_of_descr out_w in
        ignore (Serve.Server.session server ic oc : Serve.Server.session_stats);
        close_out oc;
        close_in ic)
      ()
  in
  let wc = Unix.out_channel_of_descr in_w in
  let pending = Buffer.create 256 and chunk = Bytes.create 4096 in
  let rec recv ~deadline =
    let text = Buffer.contents pending in
    match String.index_opt text '\n' with
    | Some i ->
      Buffer.clear pending;
      Buffer.add_string pending
        (String.sub text (i + 1) (String.length text - i - 1));
      Some (parse_response (String.sub text 0 i))
    | None ->
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0. then None
      else begin
        match Unix.select [ out_r ] [] [] left with
        | [], _, _ -> None
        | _ ->
          let n = Unix.read out_r chunk 0 (Bytes.length chunk) in
          if n = 0 then None
          else begin
            Buffer.add_subbytes pending chunk 0 n;
            recv ~deadline
          end
      end
  in
  let send frame =
    output_string wc frame;
    output_char wc '\n';
    flush wc
  in
  let close () =
    close_out wc;
    (* Drain what is left so the session never blocks on a full pipe. *)
    while recv ~deadline:(Unix.gettimeofday () +. 10.) <> None do
      ()
    done;
    Thread.join thread;
    Unix.close out_r
  in
  { send; recv; close }

(* Holds the store's lock on a thread of its own, as an external writer
   would, until [release] or at most [hold_s]: [corrupt_staged] runs its
   transform under the lock, and this one waits and changes nothing. *)
let hold_lock server ~hold_s =
  let holding = Atomic.make false and released = Atomic.make false in
  let thread =
    Thread.create
      (fun () ->
        Catalog.Store.corrupt_staged (Serve.Server.store server) ~table:"t1"
          (fun tbl ->
            Atomic.set holding true;
            let until = Unix.gettimeofday () +. hold_s in
            while (not (Atomic.get released)) && Unix.gettimeofday () < until do
              Thread.delay 0.001
            done;
            tbl))
      ()
  in
  while not (Atomic.get holding) do
    Thread.delay 0.001
  done;
  fun () ->
    Atomic.set released true;
    Thread.join thread

let test_readers_skip_the_lock () =
  let server = Serve.Server.create (serve_db ()) in
  let release = hold_lock server ~hold_s:5. in
  let session = open_session server in
  Fun.protect
    ~finally:(fun () ->
      release ();
      session.close ())
  @@ fun () ->
  session.send {|{"id":"h","op":"health"}|};
  session.send (Printf.sprintf {|{"id":"e","op":"estimate","sql":"%s"}|} sql);
  session.send (Printf.sprintf {|{"id":"x","op":"explain","sql":"%s"}|} sql);
  (* Well inside the holder's 5 s: a reader that waits for the lock is
     answered only after it lets go, so it misses this deadline. *)
  let deadline = Unix.gettimeofday () +. 2. in
  let answered =
    List.init 3 (fun _ ->
        match session.recv ~deadline with
        | Some r -> r
        | None -> Alcotest.fail "a reader waited for the writers' lock")
  in
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (id ^ " answered ok while the lock is held")
        true (by_id answered id).ok)
    [ "h"; "e"; "x" ]

(* [serve_db] plus a table whose ANALYZE takes long enough to see what
   runs meanwhile. *)
let db_with_big_table rows =
  let db = serve_db () in
  let schema =
    Rel.Schema.make
      [
        Rel.Schema.column ~table:"big" ~name:"k" Rel.Value.Ty_int;
        Rel.Schema.column ~table:"big" ~name:"v" Rel.Value.Ty_int;
      ]
  in
  let rel = Rel.Relation.create schema in
  for i = 0 to rows - 1 do
    Rel.Relation.insert_values rel
      [ Rel.Value.Int (i mod 5000); Rel.Value.Int (i mod 977) ]
  done;
  ignore (Catalog.Analyze.register db ~name:"big" rel);
  db

let test_run_not_behind_analyze () =
  let db = db_with_big_table 300_000 in
  let server = Serve.Server.create db in
  (* Time the compute phase of the analyze the session will run, on a
     twin store, and sleep a twentieth of it between the two frames: the
     analyze is under way when the run arrives, and computes for at least
     ten times as long as the test sleeps. *)
  let twin = Catalog.Store.create db in
  let t0 = Unix.gettimeofday () in
  ignore
    (Catalog.Store.analyze twin (Catalog.Store.snapshot twin ~table:"big"));
  let compute_s = Unix.gettimeofday () -. t0 in
  let session = open_session server in
  Fun.protect ~finally:(fun () -> session.close ()) @@ fun () ->
  let deadline = Unix.gettimeofday () +. 30. in
  (* One answered request first, so the worker domains are up and idle
     when the analyze arrives. *)
  session.send (Printf.sprintf {|{"id":"w","op":"estimate","sql":"%s"}|} sql);
  if session.recv ~deadline = None then Alcotest.fail "warm-up unanswered";
  session.send {|{"id":"a","op":"analyze","table":"big"}|};
  Unix.sleepf (compute_s /. 20.);
  let run_sent = Unix.gettimeofday () in
  session.send (Printf.sprintf {|{"id":"r","op":"run","sql":"%s"}|} sql);
  let first = session.recv ~deadline in
  let run_s = Unix.gettimeofday () -. run_sent in
  let second = session.recv ~deadline in
  match (first, second) with
  | Some first, Some second ->
    Alcotest.(check (option string)) "run answered before the analyze"
      (Some "r") first.rid;
    (* A run queued behind the analyze would also wait out most of its
       compute, and could still slip in just before its answer. *)
    Alcotest.(check bool)
      (Printf.sprintf "run answered in %.1f ms, during a %.1f ms analyze"
         (run_s *. 1000.) (compute_s *. 1000.))
      true
      (run_s < compute_s /. 2.);
    Alcotest.(check bool) "run ok" true first.ok;
    Alcotest.(check bool) "analyze ok" true second.ok
  | _ -> Alcotest.fail "run or analyze unanswered"

(* A writer never waits for a run's execution, which reads O(1) copies of
   the live relations with no lock held. The budget clock pauses the run
   500 calls after an explain of the same query was answered: planning
   consults it a few times (checked below), executing once per 64 tuples
   read (1,562 times over 100,000 rows), so the pause falls mid-execution,
   and an insert and a delete of the table it reads must return before it
   resumes. The run then counts the rows it copied, blind to both. *)
let test_writers_not_behind_run () =
  let calls = Atomic.make 0 and pause_at = Atomic.make max_int in
  let paused = Atomic.make false and resume = Atomic.make false in
  let clock () =
    if Atomic.fetch_and_add calls 1 = Atomic.get pause_at then begin
      Atomic.set paused true;
      let until = Unix.gettimeofday () +. 10. in
      while (not (Atomic.get resume)) && Unix.gettimeofday () < until do
        Unix.sleepf 0.001
      done
    end;
    0.
  in
  let server =
    Serve.Server.create
      ~config:
        {
          Serve.Server.default_config with
          Serve.Server.domains = 1;
          clock = Some clock;
        }
      (db_with_big_table 100_000)
  in
  let big_sql = "SELECT COUNT(*) FROM big WHERE big.k < 100" in
  let rows_before =
    let db = Serve.Server.db server in
    Exec.Executor.count_query db (Sqlfront.Binder.compile_exn db big_sql)
  in
  let frame id op =
    Printf.sprintf {|{"id":"%s","op":"%s","sql":"%s","deadline_ms":60000}|} id
      op big_sql
  in
  let wait_for flag ~seconds =
    let until = Unix.gettimeofday () +. seconds in
    while (not (Atomic.get flag)) && Unix.gettimeofday () < until do
      Thread.delay 0.001
    done;
    Atomic.get flag
  in
  let session = open_session server in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set resume true;
      session.close ())
  @@ fun () ->
  let deadline = Unix.gettimeofday () +. 30. in
  session.send (frame "x" "explain");
  if session.recv ~deadline = None then Alcotest.fail "explain unanswered";
  let planning = Atomic.get calls in
  if planning >= 100 then
    Alcotest.failf "admitting and planning the query took %d clock calls"
      planning;
  Atomic.set pause_at (planning + 500);
  session.send (frame "r" "run");
  if not (wait_for paused ~seconds:10.) then
    Alcotest.fail "the run never reached its pause";
  let store = Serve.Server.store server and wrote = Atomic.make false in
  let writer =
    Thread.create
      (fun () ->
        Catalog.Store.insert store ~table:"big"
          [ [ Rel.Value.Int 1; Rel.Value.Int 1 ] ];
        Catalog.Store.delete store ~table:"big" ~indices:[ 0; 1; 2 ];
        Atomic.set wrote true)
      ()
  in
  let wrote_during_run = wait_for wrote ~seconds:2. in
  Atomic.set resume true;
  Thread.join writer;
  Alcotest.(check bool) "insert and delete returned while the run executed"
    true wrote_during_run;
  match session.recv ~deadline with
  | None -> Alcotest.fail "run unanswered"
  | Some r ->
    Alcotest.(check bool) "run ok" true r.ok;
    Alcotest.(check int) "run counts the rows it copied" rows_before
      (int_of_float (number (List.assoc "rows" r.top)))

(* A run plans on the pinned epoch, as an explain does: after a delete
   and an analyze, both read the re-ANALYZEd statistics, not the ones the
   server was created with. One worker domain, so the frames are
   processed in wire order. *)
let test_run_plans_on_the_epoch () =
  let server =
    Serve.Server.create
      ~config:{ Serve.Server.default_config with Serve.Server.domains = 1 }
      (serve_db ())
  in
  Catalog.Store.delete (Serve.Server.store server) ~table:"t1"
    ~indices:(List.init 250 Fun.id);
  let _, responses =
    drive_server server
      [
        {|{"id":"a","op":"analyze"}|};
        Printf.sprintf {|{"id":"x","op":"explain","sql":"%s"}|} sql;
        Printf.sprintf {|{"id":"r","op":"run","sql":"%s"}|} sql;
        {|{"id":"d","op":"drain"}|};
      ]
  in
  let estimates id =
    let r = by_id responses id in
    Alcotest.(check bool) (id ^ " ok") true r.ok;
    match List.assoc_opt "estimates" r.top with
    | Some (Obs.Json.List sizes) -> List.map number sizes
    | _ -> Alcotest.failf "%s carries no estimates" id
  in
  Alcotest.(check bool) "analyze ok" true (by_id responses "a").ok;
  Alcotest.(check (list (float 0.))) "run's estimates = explain's"
    (estimates "x") (estimates "r")

(* The chaos harness's script is a function of its seed: two runs of
   seed 1 over 60 sessions send the same frames in the same session mix,
   pinned by the literals below, and both pass. The outcome counts depend
   on scheduling, so only [pass] reads them. *)
let render_script (c : Harness.Serve_chaos.script) =
  Printf.sprintf
    "%d sessions, seed %d: %d frames (%d valid, %d malformed, %d \
     oversized); %d ordered, %d disconnects, %d with churn"
    c.sessions c.seed c.frames_sent c.valid_sent c.malformed_sent
    c.oversized_sent c.ordered_sessions c.disconnect_sessions
    c.churn_sessions

let test_chaos_script_deterministic () =
  for run = 1 to 2 do
    let summary = Harness.Serve_chaos.run ~seed:1 ~sessions:60 () in
    let label what = Printf.sprintf "run %d: %s" run what in
    Alcotest.(check bool) (label "passes") true
      (Harness.Serve_chaos.pass summary);
    Alcotest.(check string) (label "script")
      "60 sessions, seed 1: 883 frames (736 valid, 85 malformed, 44 \
       oversized); 11 ordered, 6 disconnects, 27 with churn"
      (render_script summary.Harness.Serve_chaos.script)
  done

(* A served [analyze] re-ANALYZEs with the options the server was
   created with: over [Fault.base_db], whose six columns carry equi-depth
   histograms and MCV sketches, the epoch it publishes keeps all twelve
   (a server built with the store's default options drops them). *)
let test_analyze_keeps_sketches () =
  let sketches epoch =
    List.fold_left
      (fun counts (table : Catalog.Table.t) ->
        List.fold_left
          (fun (h, m) (_, (c : Stats.Col_stats.t)) ->
            ( (if Option.is_some c.Stats.Col_stats.histogram then h + 1 else h),
              if Option.is_some c.Stats.Col_stats.mcv then m + 1 else m ))
          counts table.Catalog.Table.column_stats)
      (0, 0)
      (Catalog.Db.tables (Catalog.Epoch.db epoch))
  in
  let server =
    Serve.Server.create ~histogram:Harness.Fault.base_histogram
      ~mcv:Harness.Fault.base_mcv
      (Harness.Fault.base_db ())
  in
  let pin () = Catalog.Store.pin (Serve.Server.store server) in
  let before = pin () in
  let _, responses =
    drive_server server
      [ {|{"id":"a","op":"analyze"}|}; {|{"id":"d","op":"drain"}|} ]
  in
  let after = pin () in
  Alcotest.(check bool) "analyze ok" true (by_id responses "a").ok;
  Alcotest.(check bool) "analyze published an epoch" true
    (Catalog.Epoch.id after > Catalog.Epoch.id before);
  Alcotest.(check (pair int int)) "epoch 0: histograms and MCVs" (6, 6)
    (sketches before);
  Alcotest.(check (pair int int)) "the analyzed epoch keeps them" (6, 6)
    (sketches after)

(* --- the registry takes each session's totals when it ends --- *)

(* What the registry should hold for one session: each serve.* counter
   under its [session_stats] field (a flag counts once). *)
let expected_counters (s : Serve.Server.session_stats) ~drains =
  let flag b = if b then 1 else 0 in
  [
    ("serve.frames", s.frames);
    ("serve.admitted", s.admitted);
    ("serve.answered_ok", s.answered_ok);
    ("serve.answered_error", s.answered_error);
    ("serve.shed", s.shed);
    ("serve.malformed", s.malformed);
    ("serve.internal_errors", s.internal_errors);
    ("serve.budget_trips", s.budget_trips);
    ("serve.epoch_retries", s.epoch_retries);
    ("serve.disconnects", flag s.disconnected);
    ("serve.drain_timeouts", flag s.drain_timed_out);
    ("serve.drains", drains);
  ]

(* Every serve.* counter in the registry is expected with its value, and
   an expected 0 is absent. *)
let check_registry server expected =
  let snap = Obs.Metrics.snapshot (Serve.Server.metrics server) in
  List.iter
    (fun (name, value) ->
      match Obs.Metrics.find snap name with
      | Some (Obs.Metrics.Counter n) -> Alcotest.(check int) name value n
      | Some _ -> Alcotest.failf "%s is not a counter" name
      | None -> Alcotest.(check int) (name ^ " absent: never moved") 0 value)
    expected;
  List.iter
    (fun name ->
      if String.starts_with ~prefix:"serve." name then
        match Obs.Metrics.find snap name with
        | Some (Obs.Metrics.Counter _) ->
          Alcotest.(check bool) (name ^ " is a session total") true
            (List.mem_assoc name expected)
        | _ -> ())
    (Obs.Metrics.names snap);
  match Obs.Metrics.find snap "serve.latency_ms" with
  | Some (Obs.Metrics.Histogram h) -> h.Obs.Metrics.count
  | _ -> 0

(* A depth-1 queue behind two domains sheds however they are scheduled.
   The first frame finds the queue empty, so its budget trip is counted;
   the damage and the two drains move the rest. *)
let busy_session =
  [
    Printf.sprintf {|{"id":"trip","op":"run","sql":"%s","row_budget":1}|} sql;
    "not json";
    Printf.sprintf {|{"id":"bad","op":"explain","sql":"%s","estimator":"nope"}|}
      sql;
  ]
  @ List.init 12 (fun i ->
        Printf.sprintf {|{"id":"e%d","op":"estimate","sql":"%s"}|} i sql)
  @ [
      {|{"id":"d1","op":"drain"}|};
      {|{"id":"late","op":"estimate","sql":"SELECT COUNT(*) FROM t1"}|};
      {|{"id":"d2","op":"drain"}|};
    ]

let shallow_server () =
  Serve.Server.create
    ~config:{ Serve.Server.default_config with Serve.Server.queue_depth = 1 }
    (serve_db ())

let test_registry_is_the_sessions_books () =
  let server = shallow_server () in
  let stats, responses = drive_server server busy_session in
  Alcotest.(check int) "every frame answered" (List.length busy_session)
    (List.length responses);
  let latencies = check_registry server (expected_counters stats ~drains:2) in
  Alcotest.(check int) "one latency per admitted job" stats.admitted latencies

let test_second_session_adds () =
  let server = shallow_server () in
  let first, _ = drive_server server busy_session in
  let second, _ =
    drive_server server
      [
        {|{"id":"h","op":"health"}|};
        Printf.sprintf {|{"id":"e","op":"estimate","sql":"%s"}|} sql;
        {|{"id":"d","op":"drain"}|};
      ]
  in
  let sum =
    List.map2
      (fun (name, a) (_, b) -> (name, a + b))
      (expected_counters first ~drains:2)
      (expected_counters second ~drains:1)
  in
  let latencies = check_registry server sum in
  Alcotest.(check int) "one latency per admitted job, both sessions"
    (first.admitted + second.admitted)
    latencies

let suite =
  [
    Alcotest.test_case "protocol: parse totality" `Quick test_protocol_parse;
    Alcotest.test_case "session: every op answered" `Quick test_session_basic;
    Alcotest.test_case "session: post-drain sheds" `Quick
      test_session_shed_after_drain;
    Alcotest.test_case "session: damage isolated" `Quick
      test_session_damage_isolated;
    Alcotest.test_case "session: budget trip mid-query" `Quick
      test_session_budget_trip;
    Alcotest.test_case "session: too many tables is invalid-query" `Quick
      test_session_too_many_tables;
    Alcotest.test_case "chaos: script deterministic given the seed" `Quick
      test_chaos_script_deterministic;
    Alcotest.test_case "session: run counts the live rows" `Quick
      test_run_counts_live_rows;
    Alcotest.test_case "session: analyze keeps histograms and MCVs" `Quick
      test_analyze_keeps_sketches;
    Alcotest.test_case "session: the registry is the session's books" `Quick
      test_registry_is_the_sessions_books;
    Alcotest.test_case "session: a second session adds its totals" `Quick
      test_second_session_adds;
  ]

let lock_suite =
  [
    Alcotest.test_case "session: readers skip the writers' lock" `Quick
      test_readers_skip_the_lock;
    Alcotest.test_case "session: run not queued behind an analyze" `Quick
      test_run_not_behind_analyze;
    Alcotest.test_case "session: run plans on the pinned epoch" `Quick
      test_run_plans_on_the_epoch;
    Alcotest.test_case "session: writers not behind a run" `Quick
      test_writers_not_behind_run;
  ]
