(** Abstract reference symbols ("Refs" in the paper, §2.1).

    The analysis names heap objects with a small, finite set of symbols:
    two per allocation site — [R_id/A] for the most recently allocated
    object and [R_id/B] summarizing all earlier ones — one per reference
    argument, and a single [Global] for everything allocated outside the
    analyzed method.  The A/B split is the precision the paper adds over
    traditional escape analysis: stores through the unique [R_id/A] admit
    strong update.

    A symbol is one int, and int order is the order of {!view}'s variant
    ([Global], then arguments by index, then allocations by site with
    [R_id/B] before [R_id/A]). *)

type t = private int

type view =
  | Global  (** the paper's [GlobalRef] *)
  | Arg of int  (** initial value of reference argument [i] *)
  | Alloc of { site : int; recent : bool }
      (** [recent = true] is [R_site/A]; [false] is [R_site/B] *)

val view : t -> view
val of_view : view -> t

val global : t
val arg : int -> t

val summary : int -> t
(** [summary site] is [R_site/B]. *)

val recent : int -> t
(** [recent site] is [R_site/A]. *)

val of_code : int -> t
(** The symbol whose code is the int, unchecked: the inverse of the
    coercion, for {!State.Loc}'s layout. *)

val equal : t -> t -> bool
val pp : t Fmt.t

val unique : in_ctor:bool -> t -> bool
(** Does the symbol denote exactly one concrete reference?  [R_id/A]
    always does; [Arg 0] does inside a constructor (§2.3).  Unique
    references admit strong update (§2.4). *)

module Set : sig
  include Stdlib.Set.S with type elt = t

  val pp : t Fmt.t
end

module Map : Stdlib.Map.S with type key = t
