type script = {
  sessions : int;
  seed : int;
  frames_sent : int;
  valid_sent : int;
  malformed_sent : int;
  oversized_sent : int;
  disconnect_sessions : int;
  ordered_sessions : int;
  churn_sessions : int;
}

type summary = {
  script : script;
  answered_ok : int;
  answered_error : int;
  shed : int;
  budget_trips : int;
  epoch_retries : int;
  internal_errors : int;
  drains : int;
  drain_timeouts : int;
  unanswered : int;
  bad_responses : int;
  epoch_regressions : int;
  hangs : int;
  crashes : int;
  first_failure : string option;
  elapsed_s : float;
  metrics : Obs.Metrics.snapshot;
}

(* What the client is owed for one frame it wrote: a response echoing the
   frame's id, an anonymous (null-id) refusal, or nothing (blank lines
   are skipped by the server). *)
type expect = Id of string | Anon | Nothing

type kind = Ordered | Chaos | Disconnect

let tables = [ "t1"; "t2"; "t3" ]

let json_obj fields = Obs.Json.to_string (Obs.Json.Obj fields)

let jstr s = Obs.Json.String s
let jint i = Obs.Json.Int i
let jnum x = Obs.Json.Float x

(* --- frame generators --- *)

let valid_frame rng ~id ~ordered =
  let base = [ ("v", jint 1); ("id", jstr id) ] in
  let estimator () =
    match Rel.Prng.int rng 5 with
    | 0 -> [ ("estimator", jstr "m") ]
    | 1 -> [ ("estimator", jstr "ss") ]
    | 2 -> [ ("estimator", jstr "ls") ]
    | 3 -> [ ("estimator", jstr "pess") ]
    | _ -> []
  in
  let storm_budget () =
    (* Deadlines down in the microseconds: tripped by the time the worker
       dequeues, exercising the answered-without-work path. *)
    match Rel.Prng.int rng 4 with
    | 0 -> [ ("deadline_ms", jnum 0.001) ]
    | 1 -> [ ("deadline_ms", jnum (float_of_int (Rel.Prng.int_in rng 5 50))) ]
    | 2 -> [ ("row_budget", jint (Rel.Prng.int_in rng 1 10)) ]
    | _ -> []
  in
  let op =
    if ordered then
      (* Worker-handled ops only, so wire order equals processing order. *)
      match Rel.Prng.int rng 3 with
      | 0 | 1 ->
        [ ("op", jstr "estimate"); ("sql", jstr Fault.default_sql) ]
      | _ ->
        [
          ("op", jstr "analyze");
          ("table", jstr (List.nth tables (Rel.Prng.int rng 3)));
        ]
    else
      match Rel.Prng.int rng 10 with
      | 0 | 1 ->
        [ ("op", jstr "estimate"); ("sql", jstr Fault.default_sql) ]
        @ estimator ()
      | 2 ->
        [
          ("op", jstr "estimate");
          ("sql", jstr Fault.default_sql);
          ("order", Obs.Json.List (List.rev_map jstr tables));
        ]
      | 3 ->
        [ ("op", jstr "explain"); ("sql", jstr Fault.inequality_sql) ]
        @ (match Rel.Prng.int rng 3 with
          | 0 -> [ ("enumerator", jstr "greedy") ]
          | 1 -> [ ("enumerator", jstr "random") ]
          | _ -> [])
        @ estimator ()
      | 4 ->
        [ ("op", jstr "run"); ("sql", jstr Fault.default_sql) ]
        @ storm_budget ()
      | 5 ->
        [
          ("op", jstr "analyze");
          ("table", jstr (List.nth tables (Rel.Prng.int rng 3)));
          ("shards", jint (Rel.Prng.int_in rng 1 3));
        ]
      | 6 -> [ ("op", jstr "health") ]
      | 7 ->
        (* Estimation errors are still protocol successes: answered with
           a structured refusal echoing the id. *)
        [ ("op", jstr "estimate"); ("sql", jstr "SELECT * FROM nowhere") ]
      | 8 ->
        [ ("op", jstr "estimate"); ("sql", jstr Fault.default_sql);
          ("estimator", jstr "bogus") ]
      | _ ->
        [ ("op", jstr "estimate"); ("sql", jstr Fault.default_sql);
          ("deadline_ms", jnum 0.001) ]
  in
  (json_obj (base @ op), Id id)

let malformed_frame rng ~id =
  match Rel.Prng.int rng 8 with
  | 0 ->
    (* Random printable garbage. *)
    let n = Rel.Prng.int_in rng 3 40 in
    (String.init n (fun _ -> Char.chr (Rel.Prng.int_in rng 33 126)), Anon)
  | 1 ->
    (* Truncated frame: a valid prefix cut mid-token. *)
    let whole = json_obj [ ("v", jint 1); ("id", jstr id);
                           ("op", jstr "estimate");
                           ("sql", jstr Fault.default_sql) ] in
    (String.sub whole 0 (String.length whole / 2), Anon)
  | 2 ->
    (* Nesting far past the protocol's 64-level cap. *)
    (String.concat "" (List.init 200 (fun _ -> "[")), Anon)
  | 3 -> ("12345", Anon)
  | 4 ->
    ( json_obj [ ("v", jint 99); ("id", jstr id); ("op", jstr "health") ],
      Id id )
  | 5 ->
    ( json_obj [ ("v", jint 1); ("id", jstr id); ("op", jstr "estimaet");
                 ("sql", jstr Fault.default_sql) ],
      Id id )
  | 6 -> (json_obj [ ("v", jint 1); ("id", jstr id); ("op", jint 5) ], Id id)
  | _ ->
    ( json_obj [ ("v", jint 1); ("id", jstr id); ("op", jstr "estimate");
                 ("sql", jstr Fault.default_sql);
                 ("deadline_ms", jstr "soon") ],
      Id id )

let oversized_frame ~max_frame_bytes =
  (String.make (max_frame_bytes + 16) 'x', Anon)

let drain_frame ~id =
  (json_obj [ ("v", jint 1); ("id", jstr id); ("op", jstr "drain") ], Id id)

(* --- one session --- *)

type session_plan = {
  kind : kind;
  config : Serve.Server.config;
  frames : (string * expect) list;
  churn_ops : int;  (* concurrent catalog mutations; 0 = no churn thread *)
  cut_after : int;  (* Disconnect: close the response pipe after N frames *)
}

let plan_session rng index =
  let kind =
    match Rel.Prng.int rng 10 with
    | 0 | 1 -> Ordered
    | 2 -> Disconnect
    | _ -> Chaos
  in
  let domains = match kind with Ordered -> 1 | _ -> Rel.Prng.int_in rng 1 3 in
  let max_frame_bytes = match kind with Chaos -> 4096 | _ -> 65536 in
  let config =
    {
      Serve.Server.default_config with
      domains;
      queue_depth = Rel.Prng.int_in rng 2 8;
      max_frame_bytes;
      drain_deadline_ms = 2_000.;
      retry_backoff_ms = 0.1;
    }
  in
  let n_frames = Rel.Prng.int_in rng 4 24 in
  let fid i = Printf.sprintf "s%d-r%d" index i in
  let frames = ref [] in
  let counter = ref 0 in
  let next_id () = incr counter; fid !counter in
  for _ = 1 to n_frames do
    let f =
      match kind with
      | Ordered -> valid_frame rng ~id:(next_id ()) ~ordered:true
      | Disconnect | Chaos -> begin
        match Rel.Prng.int rng 10 with
        | 0 | 1 | 2 ->
          if kind = Chaos && Rel.Prng.int rng 4 = 0 then
            oversized_frame ~max_frame_bytes
          else malformed_frame rng ~id:(next_id ())
        | 3 when kind = Chaos && Rel.Prng.int rng 3 = 0 -> ("", Nothing)
        | _ -> valid_frame rng ~id:(next_id ()) ~ordered:false
      end
    in
    frames := f :: !frames
  done;
  let frames = List.rev !frames in
  let frames =
    match kind with
    | Disconnect -> frames
    | Ordered | Chaos ->
      (* End with an explicit drain, then poke the draining session with
         a few more requests: deterministic "draining" sheds, every one
         still answered with its id. *)
      let post =
        List.init (Rel.Prng.int rng 3) (fun _ ->
            valid_frame rng ~id:(next_id ()) ~ordered:false)
      in
      frames @ (drain_frame ~id:(next_id ()) :: post)
  in
  let churn_ops =
    match kind with
    | Chaos when Rel.Prng.int rng 2 = 0 -> Rel.Prng.int_in rng 4 12
    | _ -> 0
  in
  let cut_after =
    match kind with
    | Disconnect -> max 1 (List.length frames / 2)
    | _ -> max_int
  in
  { kind; config; frames; churn_ops; cut_after }

(* Read everything the server writes, watching for stalls: accumulates
   raw bytes until EOF, or flags a hang when the stream stays silent past
   the watchdog. *)
let client_reader fd ~watchdog_s =
  let buf = Buffer.create 4096 in
  let hang = ref false in
  let chunk = Bytes.create 8192 in
  let deadline = Unix.gettimeofday () +. watchdog_s in
  let rec loop () =
    if Unix.gettimeofday () > deadline then hang := true
    else
      match Unix.select [ fd ] [] [] 0.25 with
      | [], _, _ -> loop ()
      | _, _, _ -> begin
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          loop ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      end
  in
  loop ();
  (Buffer.contents buf, !hang)

let response_lines raw =
  List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' raw)

let sorted_ids ids = List.sort String.compare ids

let run ?(seed = 1) ?(watchdog_s = 60.) ~sessions () =
  let rng = Rel.Prng.create seed in
  let t_start = Unix.gettimeofday () in
  let metrics = Obs.Metrics.create () in
  let frames_sent = ref 0 and valid_sent = ref 0 in
  let malformed_sent = ref 0 and oversized_sent = ref 0 in
  let disconnects = ref 0 and ordered = ref 0 and churned = ref 0 in
  (* The script counts come from the plan alone, before the session runs,
     so they depend on nothing but the seed. *)
  let count_script plan =
    (match plan.kind with
    | Ordered -> incr ordered
    | Disconnect -> incr disconnects
    | Chaos -> ());
    if plan.churn_ops > 0 then incr churned;
    List.iter
      (fun (line, expect) ->
        incr frames_sent;
        match expect with
        | Id _ -> incr valid_sent
        | Anon ->
          if String.length line > plan.config.Serve.Server.max_frame_bytes
          then incr oversized_sent
          else incr malformed_sent
        | Nothing -> ())
      plan.frames
  in
  let answered_ok = ref 0 and answered_error = ref 0 in
  let shed = ref 0 and budget_trips = ref 0 and epoch_retries = ref 0 in
  let internal_errors = ref 0 in
  let drains = ref 0 and drain_timeouts = ref 0 in
  let unanswered = ref 0 and bad_responses = ref 0 in
  let epoch_regressions = ref 0 in
  let hangs = ref 0 and crashes = ref 0 in
  let first_failure = ref None in
  let fail index what =
    if !first_failure = None then
      first_failure :=
        Some
          (Printf.sprintf
             "session %d | %s | repro: elsdb serve-chaos --seed %d \
              --sessions %d"
             index what seed sessions)
  in
  for index = 1 to sessions do
    let plan = plan_session rng index in
    count_script plan;
    (* Pre-draw the churn schedule so the worker thread never touches the
       run's rng. *)
    let churn_plan =
      List.init plan.churn_ops (fun _ ->
          let table = List.nth tables (Rel.Prng.int rng 3) in
          let op = Rel.Prng.int rng 3 in
          let rows =
            List.init (Rel.Prng.int_in rng 1 15) (fun _ ->
                [
                  Rel.Value.Int (Rel.Prng.int_in rng 1 80);
                  Rel.Value.Int (Rel.Prng.int_in rng 1 50);
                ])
          in
          (op, table, rows))
    in
    match
      let db = Fault.base_db ~seed:(seed + index) () in
      let server =
        Serve.Server.create ~config:plan.config ~metrics
          ~histogram:Fault.base_histogram ~mcv:Fault.base_mcv db
      in
      let c2s_r, c2s_w = Unix.pipe ~cloexec:true () in
      let s2c_r, s2c_w = Unix.pipe ~cloexec:true () in
      let stats = ref None in
      let server_exn = ref None in
      let server_thread =
        Thread.create
          (fun () ->
            let ic = Unix.in_channel_of_descr c2s_r in
            let oc = Unix.out_channel_of_descr s2c_w in
            (try stats := Some (Serve.Server.session server ic oc)
             with exn -> server_exn := Some exn);
            (* Close our end so the client reader sees EOF. *)
            try Unix.close s2c_w with Unix.Unix_error _ -> ())
          ()
      in
      let churn_exn = ref None in
      let churn_thread =
        if plan.churn_ops = 0 then None
        else
          Some
            (Thread.create
               (fun () ->
                 try
                   let store = Serve.Server.store server in
                   List.iter
                     (fun (op, table, rows) ->
                       (match op with
                       | 0 -> Catalog.Store.insert store ~table rows
                       | 1 -> Catalog.Store.reanalyze store ~table
                       | _ ->
                         ignore
                           (Catalog.Store.publish store
                             : (Catalog.Epoch.t, Catalog.Validate.issue) result));
                       Unix.sleepf 0.0005)
                     churn_plan
                 with exn -> churn_exn := Some exn)
               ())
      in
      let reader_result = ref ("", false) in
      let reader_thread =
        if plan.kind = Disconnect then None
        else
          Some
            (Thread.create
               (fun () -> reader_result := client_reader s2c_r ~watchdog_s)
               ())
      in
      (* Write the session's frames; for Disconnect sessions, cut the
         response pipe partway through so server writes start failing. *)
      List.iteri
        (fun i (line, _) ->
          if i = plan.cut_after then
            (try Unix.close s2c_r with Unix.Unix_error _ -> ());
          let payload = Bytes.of_string (line ^ "\n") in
          try ignore (Unix.write c2s_w payload 0 (Bytes.length payload))
          with Unix.Unix_error _ -> ())
        plan.frames;
      (try Unix.close c2s_w with Unix.Unix_error _ -> ());
      Thread.join server_thread;
      Option.iter Thread.join churn_thread;
      Option.iter Thread.join reader_thread;
      (try Unix.close c2s_r with Unix.Unix_error _ -> ());
      if plan.kind = Disconnect then
        (try Unix.close s2c_r with Unix.Unix_error _ -> ());
      (match !churn_exn with
      | Some exn -> raise exn
      | None -> ());
      (match !server_exn with
      | Some exn -> raise exn
      | None -> ());
      let stats =
        match !stats with
        | Some s -> s
        | None -> failwith "session returned no stats"
      in
      answered_ok := !answered_ok + stats.Serve.Server.answered_ok;
      answered_error := !answered_error + stats.Serve.Server.answered_error;
      shed := !shed + stats.Serve.Server.shed;
      budget_trips := !budget_trips + stats.Serve.Server.budget_trips;
      epoch_retries := !epoch_retries + stats.Serve.Server.epoch_retries;
      internal_errors := !internal_errors + stats.Serve.Server.internal_errors;
      if stats.Serve.Server.internal_errors > 0 then
        fail index
          (Printf.sprintf "%d exception-firewall hit(s)"
             stats.Serve.Server.internal_errors);
      if stats.Serve.Server.drained then incr drains;
      if stats.Serve.Server.drain_timed_out then incr drain_timeouts;
      let final_epoch =
        (Catalog.Store.stats (Serve.Server.store server)).Catalog.Store.epoch
      in
      if plan.kind <> Disconnect then begin
        let raw, hang = !reader_result in
        if hang then begin
          incr hangs;
          fail index "client watchdog tripped: response stream stalled"
        end;
        let lines = response_lines raw in
        let ids = ref [] and anon = ref 0 and epochs = ref [] in
        List.iter
          (fun line ->
            match Obs.Json.of_string line with
            | Error msg ->
              incr bad_responses;
              fail index (Printf.sprintf "unparseable response: %s" msg)
            | Ok json -> begin
              (match Obs.Json.member "id" json with
              | Some (Obs.Json.String id) -> ids := id :: !ids
              | Some Obs.Json.Null -> incr anon
              | Some _ | None ->
                incr bad_responses;
                fail index "response without an id field");
              match Obs.Json.member "epoch" json with
              | Some (Obs.Json.Int e) -> epochs := e :: !epochs
              | _ -> ()
            end)
          lines;
        let expected_ids =
          List.filter_map
            (fun (_, e) -> match e with Id id -> Some id | _ -> None)
            plan.frames
        in
        let expected_anon =
          List.length
            (List.filter (fun (_, e) -> e = Anon) plan.frames)
        in
        if sorted_ids !ids <> sorted_ids expected_ids then begin
          incr unanswered;
          fail index
            (Printf.sprintf
               "id accounting: %d answered ids vs %d expected"
               (List.length !ids) (List.length expected_ids))
        end;
        if !anon <> expected_anon then begin
          incr unanswered;
          fail index
            (Printf.sprintf "anonymous refusals: %d vs %d expected" !anon
               expected_anon)
        end;
        let epochs = List.rev !epochs in
        List.iter
          (fun e ->
            if e > final_epoch then begin
              incr epoch_regressions;
              fail index
                (Printf.sprintf "response epoch %d newer than final %d" e
                   final_epoch)
            end)
          epochs;
        if plan.kind = Ordered then
          ignore
            (List.fold_left
               (fun prev e ->
                 if e < prev then begin
                   incr epoch_regressions;
                   fail index
                     (Printf.sprintf
                        "wire-order epoch regression: %d after %d" e prev)
                 end;
                 max prev e)
               0 epochs)
      end
      else if not stats.Serve.Server.disconnected then
        (* The cut pipe must have been noticed, not silently absorbed. *)
        fail index "disconnect session never recorded the dead client"
    with
    | () -> ()
    | exception exn ->
      incr crashes;
      fail index ("crash: " ^ Printexc.to_string exn)
  done;
  {
    script =
      {
        sessions;
        seed;
        frames_sent = !frames_sent;
        valid_sent = !valid_sent;
        malformed_sent = !malformed_sent;
        oversized_sent = !oversized_sent;
        disconnect_sessions = !disconnects;
        ordered_sessions = !ordered;
        churn_sessions = !churned;
      };
    answered_ok = !answered_ok;
    answered_error = !answered_error;
    shed = !shed;
    budget_trips = !budget_trips;
    epoch_retries = !epoch_retries;
    internal_errors = !internal_errors;
    drains = !drains;
    drain_timeouts = !drain_timeouts;
    unanswered = !unanswered;
    bad_responses = !bad_responses;
    epoch_regressions = !epoch_regressions;
    hangs = !hangs;
    crashes = !crashes;
    first_failure = !first_failure;
    elapsed_s = Unix.gettimeofday () -. t_start;
    metrics = Obs.Metrics.snapshot metrics;
  }

let pass s =
  s.crashes = 0 && s.hangs = 0 && s.unanswered = 0 && s.bad_responses = 0
  && s.epoch_regressions = 0 && s.internal_errors = 0
  && (s.script.sessions < 50
     || (s.shed > 0 && s.script.malformed_sent > 0 && s.budget_trips > 0))

let render s =
  let b = Buffer.create 512 in
  let line fmt =
    Printf.ksprintf (fun l -> Buffer.add_string b (l ^ "\n")) fmt
  in
  let c = s.script in
  line "serve-chaos: %d sessions (seed %d) in %.2fs" c.sessions c.seed
    s.elapsed_s;
  line "  frames:            %d sent (%d valid, %d malformed, %d oversized)"
    c.frames_sent c.valid_sent c.malformed_sent c.oversized_sent;
  line "  session mix:       %d ordered probes, %d disconnects, %d with \
        concurrent churn"
    c.ordered_sessions c.disconnect_sessions c.churn_sessions;
  line "  answered:          %d ok, %d structured errors" s.answered_ok
    s.answered_error;
  line "  admission control: %d shed, %d budget trips, %d epoch retries"
    s.shed s.budget_trips s.epoch_retries;
  line "  drains:            %d completed, %d timed out" s.drains
    s.drain_timeouts;
  line "  accounting:        %d unanswered, %d bad responses" s.unanswered
    s.bad_responses;
  line "  epoch visibility:  %d regressions" s.epoch_regressions;
  line "  firewall:          %d internal errors" s.internal_errors;
  line "  stability:         %d hangs, %d crashes%s" s.hangs s.crashes
    (match s.first_failure with
    | Some msg -> Printf.sprintf "  (first failure: %s)" msg
    | None -> "");
  if not (Obs.Metrics.is_empty s.metrics) then begin
    line "  metrics:";
    List.iter
      (fun l -> if not (String.equal l "") then line "    %s" l)
      (String.split_on_char '\n'
         (Format.asprintf "%a" Obs.Metrics.pp s.metrics))
  end;
  line "serve-chaos: %s" (if pass s then "PASS" else "FAIL");
  Buffer.contents b
