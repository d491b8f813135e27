(* Feeds the output checker one of each failure it must catch and asserts
   that each one raises the error rate, while a good outcome does not. *)

let tally = Check.create ()
let failures = ref 0

let step label outcome ~fails =
  let before = Check.error_rate tally in
  Check.record tally outcome;
  let raised = Check.error_rate tally > before in
  if raised <> fails then begin
    incr failures;
    Printf.printf "FAIL %s: error_rate %g -> %g\n" label before (Check.error_rate tally)
  end

let json s = match Obs.Json.of_string s with Ok j -> j | Error e -> failwith e

let () =
  step "good estimate" (Check.estimates [ 1.; 99.5 ]) ~fails:false;
  step "exception" (Check.protect (fun () -> failwith "boom")) ~fails:true;
  step "error result"
    (Some (Check.error (Els.Els_error.Invalid_query { detail = "no such table" })))
    ~fails:true;
  step "nan estimate" (Check.estimates [ 3.; Float.nan ]) ~fails:true;
  step "infinite estimate" (Check.estimate Float.infinity) ~fails:true;
  step "negative estimate" (Check.estimate (-1.)) ~fails:true;
  step "good rows" (Check.rows ~want:99 99) ~fails:false;
  step "wrong rows" (Check.rows ~want:99 100) ~fails:true;
  let ids = Check.ids 3 in
  let answered s =
    match Check.answer ids (json s) with Ok _ -> None | Error f -> Some f
  in
  step "first answer" (answered {|{"id":"r0","ok":true}|}) ~fails:false;
  step "second answer" (answered {|{"id":"r0","ok":true}|}) ~fails:true;
  step "unknown id" (answered {|{"id":"r7","ok":true}|}) ~fails:true;
  ignore (answered {|{"id":"r1","ok":true}|});
  (match Check.missing ids with
  | [ f ] -> step "missing id" (Some f) ~fails:true
  | l ->
    incr failures;
    Printf.printf "FAIL missing id: %d missing, expected 1\n" (List.length l));
  step "ok response"
    (Check.response ~expect:2.5 (json {|{"id":"r0","ok":true,"estimate":2.5}|}))
    ~fails:false;
  step "ok:false"
    (Check.response (json {|{"id":"r0","ok":false,"error":{"kind":"invalid-query"}}|}))
    ~fails:true;
  step "shed"
    (Check.response
       (json {|{"id":"r0","ok":false,"error":{"kind":"overloaded","depth":64}}|}))
    ~fails:true;
  step "estimate mismatch"
    (Check.response ~expect:2.5 (json {|{"id":"r0","ok":true,"estimate":2.5000000000000004}|}))
    ~fails:true;
  step "served negative estimate"
    (Check.response (json {|{"id":"r0","ok":true,"estimates":[1,-2]}|}))
    ~fails:true;
  step "run rows"
    (Check.response ~want_rows:10 (json {|{"id":"r0","ok":true,"rows":11}|}))
    ~fails:true;
  if !failures > 0 then exit 1;
  Printf.printf "check: %d outcomes, %d failed, error_rate %.3f\n" tally.Check.attempted
    tally.Check.failed (Check.error_rate tally)
