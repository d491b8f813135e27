(* serve-read and serve-churn: one in-process [Serve.Server.session] over a
   pipe pair, driven by exactly two client threads on one connection (this
   thread writes, one reader thread reads). The loop is closed with
   [outstanding] requests in flight, because service callers are
   optimizers that wait for each reply; an open-loop generator would also
   take one of the two cores from the workers. Latency runs from frame
   write to response read. *)

let outstanding = 4
let now = Unix.gettimeofday

type request = {
  frame : string;
  op : Gen.serve_op;
  expect : float option;  (** in-process estimate, bit-equal on serve-read *)
  want_rows : int option;  (** executed truth of a [run] *)
}

let op_name = function
  | Gen.Estimate -> "estimate"
  | Gen.Explain -> "explain"
  | Gen.Run -> "run"
  | Gen.Analyze -> "analyze"

(* Frames plus what each response must say. Expected estimates are taken
   on the pinned epoch the server will serve, truths on its live data;
   both once per distinct query, before timing. *)
let requests server (s : Gen.serve) =
  let edb = Catalog.Epoch.db (Catalog.Store.pin (Serve.Server.store server)) in
  let live = Serve.Server.db server in
  let memo table key f =
    match Hashtbl.find_opt table key with
    | Some v -> v
    | None ->
      let v = f () in
      Hashtbl.add table key v;
      v
  in
  let estimates = Hashtbl.create 64 and truths = Hashtbl.create 16 in
  Array.mapi
    (fun i (r : Gen.serve_req) ->
      let str s = Obs.Json.String s in
      let fields =
        match r.op with
        | Gen.Analyze -> []
        | Gen.Estimate | Gen.Explain | Gen.Run ->
          [ ("sql", str r.sql); ("estimator", str r.estimator) ]
      in
      let expect =
        if s.bit_check && r.op = Gen.Estimate then
          Some
            (memo estimates (r.sql, r.estimator) (fun () ->
                 let q = Sqlfront.Binder.compile_exn edb r.sql in
                 Els.estimate (Gen.config r.estimator) edb q q.Query.tables))
        else None
      in
      let want_rows =
        if r.op = Gen.Run then
          Some
            (memo truths r.sql (fun () ->
                 (Exec.Executor.run_query live (Sqlfront.Binder.compile_exn live r.sql))
                   .Exec.Executor.row_count))
        else None
      in
      {
        frame =
          Obs.Json.to_string
            (Obs.Json.Obj
               ([ ("v", Obs.Json.Int 1); ("id", str (Check.id_of i)); ("op", str (op_name r.op)) ]
               @ fields));
        op = r.op;
        expect;
        want_rows;
      })
    s.script

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Run the session; returns per-request send and receive times (0 when
   never answered), and the process CPU time and GC counters around the
   session alone. The reader only stamps and keeps each response line,
   so client work stays out of the timed loop; lines are checked once the
   session is over. Every line frees one slot, matched or not, so a
   damaged response cannot stall the loop. *)
let drive server (reqs : request array) check =
  let n = Array.length reqs in
  let gc0 = Gc.quick_stat () and cpu0 = cpu_s () in
  let c2s_r, c2s_w = Unix.pipe ~cloexec:true () in
  let s2c_r, s2c_w = Unix.pipe ~cloexec:true () in
  let session_exn = ref None in
  let server_thread =
    Thread.create
      (fun () ->
        let ic = Unix.in_channel_of_descr c2s_r in
        let oc = Unix.out_channel_of_descr s2c_w in
        (try ignore (Serve.Server.session server ic oc : Serve.Server.session_stats)
         with exn -> session_exn := Some exn);
        close_out_noerr oc;
        close_in_noerr ic)
      ()
  in
  let sent = Array.make n 0. in
  let lines = ref [] in
  let mu = Mutex.create () and freed = Condition.create () in
  let in_flight = ref 0 and closed = ref false in
  let reader =
    Thread.create
      (fun () ->
        let ic = Unix.in_channel_of_descr s2c_r in
        (try
           while true do
             let line = input_line ic in
             lines := (line, now ()) :: !lines;
             Mutex.lock mu;
             decr in_flight;
             Condition.signal freed;
             Mutex.unlock mu
           done
         with End_of_file | Sys_error _ -> ());
        close_in_noerr ic;
        Mutex.lock mu;
        closed := true;
        Condition.broadcast freed;
        Mutex.unlock mu)
      ()
  in
  let oc = Unix.out_channel_of_descr c2s_w in
  (try
     Array.iteri
       (fun i r ->
         Mutex.lock mu;
         while !in_flight >= outstanding && not !closed do
           Condition.wait freed mu
         done;
         incr in_flight;
         Mutex.unlock mu;
         sent.(i) <- now ();
         output_string oc r.frame;
         output_char oc '\n';
         flush oc)
       reqs
   with Sys_error _ -> ());
  close_out_noerr oc;
  Thread.join reader;
  Thread.join server_thread;
  let cpu = cpu_s () -. cpu0 and gc1 = Gc.quick_stat () in
  let recv = Array.make n 0. and ids = Check.ids n in
  List.iter
    (fun (line, t) ->
      match Obs.Json.of_string line with
      | Error msg -> Check.record check (Some (Check.Raised ("bad response: " ^ msg)))
      | Ok json -> (
        match Check.answer ids json with
        | Error f -> Check.record check (Some f)
        | Ok i ->
          recv.(i) <- t;
          let r = reqs.(i) in
          Check.record ~context:(Check.id_of i) check
            (Check.response ?expect:r.expect ?want_rows:r.want_rows json)))
    (List.rev !lines);
  Option.iter
    (fun exn -> Check.record check (Some (Check.Raised (Printexc.to_string exn))))
    !session_exn;
  List.iter (fun f -> Check.record check (Some f)) (Check.missing ids);
  (sent, recv, cpu, gc0, gc1)

let registry server name =
  match Obs.Metrics.find (Obs.Metrics.snapshot (Serve.Server.metrics server)) name with
  | Some (Obs.Metrics.Gauge x) -> x
  | Some (Obs.Metrics.Counter c) -> float_of_int c
  | Some (Obs.Metrics.Histogram _) | None -> 0.

(* The first [warmup] requests are untimed; throughput runs from the first
   timed send to the last timed response. *)
let measure server (s : Gen.serve) ~warmup check =
  let reqs = requests server s in
  let n = Array.length reqs in
  let sent, recv, cpu, gc0, gc1 = drive server reqs check in
  let timed = n - warmup in
  let last = ref sent.(warmup) in
  let lat = ref [] and by_op = Hashtbl.create 4 in
  for i = warmup to n - 1 do
    if recv.(i) > 0. then begin
      let ms = (recv.(i) -. sent.(i)) *. 1000. in
      lat := ms :: !lat;
      last := Float.max !last recv.(i);
      let op = reqs.(i).op in
      Hashtbl.replace by_op op (ms :: Option.value (Hashtbl.find_opt by_op op) ~default:[])
    end
  done;
  let sorted = Quant.sorted !lat in
  let rtt =
    List.filter_map
      (fun op ->
        Option.map
          (fun l ->
            (Printf.sprintf "serve.rtt_%s_p50_ms" (op_name op), Quant.rank (Quant.sorted l) 0.5))
          (Hashtbl.find_opt by_op op))
      Gen.[ Estimate; Explain; Run; Analyze ]
  in
  let per x = x /. float_of_int n in
  [
    ("ops_per_s", float_of_int timed /. (!last -. sent.(warmup)));
    ("latency_p50_ms", Quant.rank sorted 0.50);
    ("latency_p99_ms", Quant.rank sorted 0.99);
  ]
  @ rtt
  @ [
    ("serve.server_latency_p50_ms", registry server "serve.latency_p50_ms");
    ("serve.server_latency_p99_ms", registry server "serve.latency_p99_ms");
    ("serve.shed", registry server "serve.shed");
    ("serve.cpu_us_per_req", per cpu *. 1e6);
    ("serve.repeat_share", Gen.repeat_share s.script);
    ( "gc.minor_collections_per_op",
      per (float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections)) );
    ( "gc.major_collections_per_op",
      per (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections)) );
    ("gc.minor_words_per_op", per (gc1.Gc.minor_words -. gc0.Gc.minor_words));
  ]
