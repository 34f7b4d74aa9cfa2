(** Maps over non-negative ints as big-endian Patricia trees (Okasaki &
    Gill, "Fast Mergeable Integer Maps", 1998): the abstract store's
    representation.

    A key set has exactly one tree, iterated in ascending key order.
    Every operation returns its input physically when it changes nothing,
    and {!merge} and {!equal} stop at physically equal subtrees: a merge
    of two states costs what they differ by, not what they hold.  Keys
    must be non-negative. *)

type 'a t

val empty : 'a t
val find_opt : int -> 'a t -> 'a option

val find : int -> 'a t -> 'a
(** Raises [Not_found]. *)

val mem : int -> 'a t -> bool

val add : int -> 'a -> 'a t -> 'a t
(** The map itself when it already binds the key to that very value. *)

val remove : int -> 'a t -> 'a t
(** The map itself when it does not bind the key. *)

val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** Ascending key order. *)

val fold_range : int -> int -> (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** [fold_range lo hi]: {!fold} over the keys in [lo..hi] only, without
    visiting the subtrees outside. *)

val bindings : 'a t -> (int * 'a) list
(** Ascending key order. *)

val map : (int -> 'a -> 'a) -> 'a t -> 'a t
(** The map itself when [f] returns every value it is given. *)

val equal : ('a -> 'a -> bool) -> 'a t -> 'a t -> bool
(** Same keys, and [eq] holds on their values; [eq] is not called inside
    physically equal subtrees. *)

val merge : (int -> 'a -> 'a -> 'a) -> 'a t -> 'a t -> 'a t
(** [merge f s t]: the union of the bindings, [f k a b] on a key [s] binds
    to [a] and [t] to [b].  [f] is called on common keys in descending
    order, and never inside subtrees the two maps share physically, so
    [f k v v] must be [v] and free of effects.  Returns [s] itself when
    the result equals it binding for binding. *)
