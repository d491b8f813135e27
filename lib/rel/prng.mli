(** Deterministic pseudo-random numbers (SplitMix64).

    Every generator in the repository takes an explicit seed so that every
    experiment, test and benchmark is exactly reproducible. SplitMix64 is
    tiny, fast, and has no global state. *)

type t

val create : int -> t
(** Seeded generator; equal seeds give equal streams. *)

val split : t -> t
(** An independent generator derived from (and advancing) [t]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [[0, bound)].
    @raise Invalid_argument when [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [[lo, hi]] inclusive. *)

val float : t -> float
(** Uniform in [[0, 1)]. *)

val bool : t -> bool

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates. *)
