(** Growable arrays.

    OCaml 5.1 predates [Dynarray]; this is the small subset the engine needs
    for building relations and operator buffers. Elements are boxed in a
    plain [array] doubled on demand. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val get : 'a t -> int -> 'a
(** @raise Invalid_argument when the index is out of bounds. *)

val set : 'a t -> int -> 'a -> unit
(** @raise Invalid_argument when the index is out of bounds. *)

val push : 'a t -> 'a -> unit
val pop : 'a t -> 'a option

val clear : 'a t -> unit
(** Drops all elements but keeps the underlying storage. *)

val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val map : ('a -> 'b) -> 'a t -> 'b t
val exists : ('a -> bool) -> 'a t -> bool
val to_array : 'a t -> 'a array
val to_list : 'a t -> 'a list
val of_list : 'a list -> 'a t

val copy : 'a t -> 'a t
(** A vector of the same elements whose later pushes and sets are its
    own. *)

val sort : ('a -> 'a -> int) -> 'a t -> unit
(** In-place sort of the populated prefix. *)

val append : 'a t -> 'a t -> unit
(** [append dst src] pushes all of [src] onto [dst]. *)
