(** Growable append-only arrays.

    OCaml 5.1 predates [Dynarray]; this is the small subset the engine needs
    for building relations and operator buffers. Elements are boxed in a
    plain [array] doubled on demand. {!push} is the only write, and it
    writes at the vector's length, never below it, so {!copy} can share
    the array. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val get : 'a t -> int -> 'a
(** @raise Invalid_argument when the index is out of bounds. *)

val push : 'a t -> 'a -> unit

val iter : ('a -> unit) -> 'a t -> unit
val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val map : ('a -> 'b) -> 'a t -> 'b t
val exists : ('a -> bool) -> 'a t -> bool
val to_array : 'a t -> 'a array
val to_list : 'a t -> 'a list
val of_list : 'a list -> 'a t

val copy : 'a t -> 'a t
(** The same elements in O(1): the copy shares the array and moves to an
    array of its own on its first push, so neither vector sees the
    other's later pushes. Making the copy reads the vector, so it must
    not race a push to it; once made, the two may be read and pushed to
    from different threads. *)

val append : 'a t -> 'a t -> unit
(** [append dst src] pushes all of [src] onto [dst]. *)
