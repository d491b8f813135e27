(** The Section 8 experiment database.

    Four stored tables — S (small), M (medium), B (big), G (giant) — each
    with a single key join column named after the table:

    {v ‖S‖=1000  ‖M‖=10000  ‖B‖=50000  ‖G‖=100000
       d_s=1000  d_m=10000  d_b=50000  d_g=100000 v}

    Each column holds a permutation of [1..‖R‖], so the containment
    assumption holds exactly and the true size of any subset join that
    includes the [s < 100] restriction is exactly 99 (the paper rounds the
    "correct answer" to 100; values below 100 in a 1-based key domain
    number 99). *)

val build : ?scale:int -> seed:int -> unit -> Catalog.Db.t
(** Stored + analyzed catalog. [scale] divides every cardinality: the
    default 1 gives the paper's, [scale = 10] gives ‖S‖=100 … ‖G‖=10000
    for quick tests. *)

val query : unit -> Query.t
(** [SELECT COUNT( ) FROM s,m,b,g WHERE s=m AND m=b AND b=g AND s<100] —
    with the constant scaled consistently when [scale ≠ 1] via
    {!query_scaled}. *)

val query_scaled : scale:int -> Query.t

val cardinalities : scale:int -> (string * int) list
