(** Runtime values: null, integers, and references to heap objects by
    id. *)

type t = Null | Int of int | Ref of int

val equal : t -> t -> bool
val pp : t Fmt.t
val is_ref : t -> bool
