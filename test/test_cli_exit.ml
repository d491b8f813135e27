(* The CLI exit-code contract, pinned by running the real binary: 0 on
   success, 1 on runtime failure, 2 on usage error — and never a
   backtrace on any path. Table-driven so adding a subcommand means
   adding a row, not a test. *)

let bin = Filename.concat (Filename.concat ".." "bin") "elsdb.exe"

type case = {
  name : string;
  args : string;
  stdin : string option;
  expect : int;
  stdout_has : string option;  (** a substring stdout must contain *)
}

let case ?stdin ?stdout_has name args expect =
  { name; args; stdin; expect; stdout_has }

(* A one-table csv: database, which has no canonical query. *)
let csv_db =
  let f = Filename.temp_file "elsdb_cli" ".csv" in
  Out_channel.with_open_text f (fun oc ->
      Out_channel.output_string oc "a\n1\n2\n");
  at_exit (fun () -> Sys.remove f);
  "csv:" ^ f

let cases =
  [
    case "success" "estimate" 0;
    case "version" "--version" 0;
    case "help" "--help=plain" 0;
    case "subcommand help" "serve --help=plain" 0;
    (* usage errors: the caller can fix the invocation *)
    case "unknown subcommand" "definitely-not-a-command" 2;
    case "unknown flag" "estimate --no-such-flag" 2;
    case "bad flag value" "section8 --scale=many" 2;
    case "bad sql" "estimate --sql 'SELECT nope'" 2;
    case "unknown estimator" "estimate --estimator wat" 2;
    case "unknown enumerator" "explain --enumerator sideways" 2;
    case "bad db spec" "estimate --db nope:3" 2;
    case "bad trace format" "estimate --trace=wat" 2;
    case "bad metrics format" "estimate --metrics=yaml" 2;
    case ~stdin:"this is not json" "check-metrics rejects damage"
      "check-metrics" 2;
    case ~stdin:{|{"counters":{"a":-1},"gauges":{},"histograms":{}}|}
      "check-metrics rejects bad schema" "check-metrics" 2;
    (* runtime failures: the system hit a limit or a broken state *)
    case "row budget exhausted" "run --row-budget 1" 1;
    (* the service: a clean scripted session exits 0, and its metrics
       snapshot round-trips through check-metrics *)
    case
      ~stdin:
        {|{"id":"1","op":"health"}
{"id":"2","op":"drain"}|}
      "serve clean session" "serve" 0;
    (* a db spec carries its default query: section8's restriction scales
       as s < 100 / SCALE, and csv: has none, so --sql is required *)
    case ~stdout_has:"s.s < 100" "section8 default query scales"
      "closure --db section8:1" 0;
    case "csv db without --sql" ("closure --db " ^ Filename.quote csv_db) 2;
    (* enumerator names are case-insensitive, as in the serve protocol *)
    case "enumerator name in upper case" "explain --enumerator GREEDY" 0;
  ]

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  n = 0 || scan 0

let run_case { name; args; stdin; expect; stdout_has } () =
  let out_file = Filename.temp_file "elsdb_cli" ".out" in
  let err_file = Filename.temp_file "elsdb_cli" ".err" in
  let feed =
    match stdin with
    | None -> "</dev/null"
    | Some text ->
      (* via a temp file, not a shell pipe: the pipe would make the exit
         status ambiguous under some shells *)
      let f = Filename.temp_file "elsdb_cli" ".in" in
      Out_channel.with_open_text f (fun oc -> Out_channel.output_string oc text);
      "<" ^ Filename.quote f
  in
  let cmd =
    Printf.sprintf "%s %s %s >%s 2>%s" (Filename.quote bin) args feed
      (Filename.quote out_file) (Filename.quote err_file)
  in
  let code = Sys.command cmd in
  let read f =
    let text = In_channel.with_open_text f In_channel.input_all in
    Sys.remove f;
    text
  in
  let stdout_text = read out_file in
  let stderr_text = read err_file in
  Alcotest.(check int) (name ^ ": exit code") expect code;
  Option.iter
    (fun needle ->
      Alcotest.(check bool) (name ^ ": stdout has " ^ needle) true
        (contains stdout_text needle))
    stdout_has;
  Alcotest.(check bool) (name ^ ": no backtrace") false
    (contains stderr_text "Raised at"
    || contains stderr_text "Raised by"
    || contains stderr_text "Called from")

let suite =
  List.map
    (fun c -> Alcotest.test_case c.name `Quick (run_case c))
    cases
