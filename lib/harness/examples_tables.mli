(** Machine-checked renderings of the paper's worked examples:
    Examples 1b/2/3 (rules M/SS/LS), the Section 5 urn-model numbers, and
    the Section 6 single-table numbers. Used by the bench harness and
    EXPERIMENTS.md. *)

val rules_table : unit -> (string * float * float * float) list
(** Rows of (rule name, our estimate, paper's value, correct value) for the
    join order (R2 ⋈ R3) ⋈ R1 of Example 1b. *)

val render_rules_table : unit -> string

val render_urn_table : unit -> string
(** Rows of (‖R‖′, urn estimate of d′ₓ, linear estimate) for the Section 5
    example (dₓ = 10000, ‖R‖ = 100000). *)

val single_table_numbers : unit -> float * float
(** (‖R2‖′, effective join cardinality) for the Section 6 example; the
    paper's values are 20 and 9. *)

val render_single_table : unit -> string
