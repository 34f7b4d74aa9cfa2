(** Symbolic integer values ("IntVals", paper §3.2) and the
    stride-discovery merge procedure (paper Figure 1).

    An IntVal is ⊤ or a linear combination
    [a·v + k₀·c₀ + … + kₙ·cₙ + b] with at most one term in a {e variable
    unknown} (invented at control-flow merges to express values that vary
    with a common stride), any number of terms in {e constant unknowns}
    (opaque but fixed values such as argument-array lengths), and an
    integer literal.  Literal arithmetic wraps at 62 bits, as the program's
    own does ({!Jir.Types.wrap}). *)

type t = Top | Lin of lin

and lin = {
  var : (int * int) option;  (** coefficient × variable-unknown id *)
  consts : (int * int) list;
      (** coefficient × constant-unknown id; sorted by id, coeffs ≠ 0 *)
  base : int;
}

val top : t
val zero : t
val const : int -> t

(** Fresh-unknown supply; one per analyzed method. *)
module Gen : sig
  type t

  val create : unit -> t
  val fresh_const : t -> int
  val fresh_var : t -> int
end

val of_const_unknown : int -> t
val of_var_unknown : int -> t
val is_top : t -> bool

val to_literal : t -> int option
(** The literal integer, if the value is a pure literal. *)

val is_literal : t -> bool
val equal : t -> t -> bool
val pp : t Fmt.t

(** {2 Symbolic arithmetic} — ⊤ where linearity would be lost. *)

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val scale : int -> t -> t
val add_const : int -> t -> t
val mul : t -> t -> t
val binop : Jir.Types.ibin -> t -> t -> t

val var_term : t -> (int * int) option
(** The variable-unknown term, as (coefficient, id); [None] when absent
    or ⊤ (the paper's [var_term]). *)

val provably_ge : t -> t -> bool
(** [provably_ge a b] — is [a - b] a non-negative literal?  Symbolic
    terms must cancel exactly; the difference is exact, not wrapped. *)

val provably_gt : t -> t -> bool

val subst_var : t -> v:int -> by:t -> t
(** Replace variable unknown [v] (the paper's substitution application
    [μ(i)]). *)

(** {2 Merging (paper Figure 1)} *)

(** A merge context is created per whole-state merge and shared by the
    merges of every integer state component, so components varying with
    the same stride share one variable unknown ([U], [μ₁], [μ₂] in the
    paper).  [widen] disables invention of new unknowns (termination
    safety net).  The tables are allocated at the first stride
    discovery. *)
module Ctx : sig
  type ctx

  val create : ?widen:bool -> Gen.t -> ctx
end

val match_ : lin -> lin -> t option
(** The paper's [match], extended to variable-free right operands (see
    DESIGN.md §6): returns [s] with [i1[v₁ := s] = i2] when one exists. *)

val merge : Ctx.ctx -> t -> t -> t
(** Direct transcription of the paper's Figure 1 ([merge_intvals]). *)

val merge_flat : t -> t -> t
(** Equal-or-⊤ merge, for places where no context is threaded (e.g. the
    A→B collapse at an allocation site). *)
