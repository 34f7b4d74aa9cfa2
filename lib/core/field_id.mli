(** Identifiers of abstract heap locations within an object: a declared
    instance field, or the pseudo-field [f_elems] collapsing all elements
    of an object array (paper §2.4).

    A field id is one int: {!elems} is 0, and a declared field is its
    {!Jir.Program.field_id}, so id order is (class, name) order. *)

type t = private int

val elems : t

val of_field_ref : Jir.Program.t -> Jir.Types.field_ref -> t
(** Raises {!Jir.Program.Link_error} on an unknown field. *)

val of_code : int -> t
(** The field id that is the int, unchecked: the inverse of the
    coercion, for {!State.Loc}'s layout. *)

val compare : t -> t -> int
val equal : t -> t -> bool

val pp : Jir.Program.t -> t Fmt.t
(** [Class.name], or [elems]. *)

module Map : Stdlib.Map.S with type key = t
