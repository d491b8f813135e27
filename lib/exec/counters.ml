type t = {
  mutable tuples_read : int;
  mutable comparisons : int;
  mutable tuples_output : int;
  budget : Rel.Budget.t option;
}

let create ?budget () =
  { tuples_read = 0; comparisons = 0; tuples_output = 0; budget }

let spend t n =
  match t.budget with
  | None -> ()
  | Some b -> Rel.Budget.spend_rows_exn b n

let read t n =
  t.tuples_read <- t.tuples_read + n;
  spend t n

let compared t n = t.comparisons <- t.comparisons + n

let output t n =
  t.tuples_output <- t.tuples_output + n;
  spend t n

let total_work t = t.tuples_read + t.comparisons + t.tuples_output

let pp ppf t =
  Format.fprintf ppf "read=%d cmp=%d out=%d (work=%d)" t.tuples_read
    t.comparisons t.tuples_output (total_work t)
