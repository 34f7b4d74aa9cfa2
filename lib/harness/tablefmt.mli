(** Minimal fixed-width text tables for experiment output. *)

type align = L | R

val render : header:string list -> align:align list -> string list list -> string
val pct : int -> int -> string
val f1 : float -> string
