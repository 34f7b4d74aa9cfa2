(** Abstract program states for the barrier-removal analyses: the paper's
    ⟨ρ, σ, NL, stk⟩ tuple (§2.1) plus the array-analysis components Len
    and NR (§3.2), the null-or-same facts (§4.3), and the move-down shift
    chains (§4.3). *)

module Rset = Refsym.Set

(** Abstract locations (symbol, field) as one int: the symbol's code
    shifted past [field_bits] bits that hold the field id.  Int order is
    (symbol, field) order, and a symbol's locations are the contiguous
    range [first r .. last r].  {!Jir.Program.of_program}'s bounds keep
    every key distinct and non-negative.  This module owns the layout. *)
module Loc : sig
  type t = int

  val field_bits : int
  val make : Refsym.t -> Field_id.t -> t
  val sym : t -> Refsym.t
  val field : t -> Field_id.t

  val first : Refsym.t -> t
  (** The symbol's least location, its [elems]. *)

  val last : Refsym.t -> t
  (** The symbol's greatest possible location. *)
end

module Rmap : Map.S with type key = Refsym.t

(** Null-or-same facts: [l] ∈ [nos v] for the location [l] of [r.f] means
    [v] equals the current content of [r.f] or that content is null —
    either way an SATB barrier for [r.f ← v] is unnecessary (§4.3). *)
module Nos : Set.S with type elt = Loc.t

(** Must-alias value sources: two values carrying the same source are the
    same concrete reference (used by the §4.3 move-down extension). *)
type must_src = Mstatic of Jir.Types.class_name * Jir.Types.field_name

val equal_must_src : must_src -> must_src -> bool

type eprov = private {
  ep_src : must_src;
  ep_idx : Intval.t;
  ep_displaced : bool;
}
(** Element provenance (§4.3 rearrangements): the value was loaded from
    the array identified by [ep_src] at [ep_idx] and, unless displaced,
    still is that slot's current content.  A displaced provenance means
    the slot was just overwritten by the first store of a pending swap:
    the value is the unique element pushed out of [ep_idx].  The index
    is never ⊤. *)

val loaded : must_src -> Intval.t -> eprov option
(** The provenance of an element just loaded from the array at the index;
    [None] when the index is ⊤.  The one way to make a provenance. *)

val equal_eprov : eprov -> eprov -> bool

type refinfo = {
  refs : Rset.t;  (** empty set = definitely null *)
  nos : Nos.t;
  msrc : must_src option;
      (** this value equals the current content of the source *)
  eprov : eprov option;
}

(** Abstract values; [Clash] covers locals holding different kinds on
    different paths (never read, per the verifier). *)
type aval = Bot | Clash | Int of Intval.t | Ref of refinfo

type t = {
  rho : aval array;  (** locals *)
  stk : aval list;  (** operand stack, top first *)
  nl : Rset.t;  (** non-thread-local symbols *)
  sigma : aval Ptmap.t;  (** abstract store, keyed by {!Loc.t} *)
  len : Intval.t Rmap.t;  (** array lengths *)
  nr : Intrange.t Rmap.t;  (** null ranges *)
  shift : (must_src * Intval.t) option;
      (** active move-down chain: slots ≤ idx of the identified array
          hold null or a value also stored at a lower index *)
}

val mk_refinfo :
  ?msrc:must_src -> ?eprov:eprov -> ?nos:Nos.t -> Rset.t -> refinfo

val ref_of : Rset.t -> aval
val null_v : aval
val global_v : aval
val pp_aval : aval Fmt.t
val pp : Jir.Program.t -> t Fmt.t
(** Field names come from the program's numbering. *)

val equal_aval : aval -> aval -> bool
val equal : t -> t -> bool

(** {2 Lookups} *)

val lookup_field : t -> Refsym.t -> Field_id.t -> aval
(** The paper's lookup(σ, r, NL, f): {GlobalRef} for non-thread-local
    references, the recorded value otherwise. *)

val lookup_ref_field : t -> Rset.t -> Field_id.t -> refinfo
val lookup_int_field : t -> Rset.t -> Field_id.t -> Intval.t

val lookup_len : t -> Rset.t -> Intval.t
(** Sound even for escaped arrays: lengths are immutable. *)

val lookup_nr : t -> Refsym.t -> Intrange.t
(** [Empty] once the array may be visible to another thread. *)

(** {2 Escape (non-thread-locality)} *)

val all_non_tl : t -> Rset.t -> t
(** The paper's AllNonTL: extend NL with the set and everything
    transitively reachable from it via σ. *)

val all_non_tl_cond : t -> objs:Rset.t -> value:aval -> t
(** AllNonTLCond: the stored value escapes if any receiver already has. *)

val escape_args : t -> aval list -> t
(** nAllNonTL over call arguments. *)

val reach_closure : t -> Rset.t -> Rset.t
(** Every symbol reachable from the set through explicit σ entries, the
    set included — without marking anything non-thread-local.  Used by
    the summary-aware call transfer to find the possible receivers of a
    callee's writes through a parameter. *)

(** {2 Allocation-site symbol recycling (§2.4 newinstance)} *)

val retire_site : t -> int -> t
(** Substitute [R_site/A → R_site/B] throughout the state (the paper's
    rngSubst / transfer / replS). *)

(** {2 Merging (§2.2, §3.5)} *)

val merge_nos : t -> t -> refinfo -> refinfo -> Nos.t
val merge_msrc : must_src option -> must_src option -> must_src option

val merge_eprov :
  Intval.Ctx.ctx -> eprov option -> eprov option -> eprov option
(** Same source and displacement status; indices merged as integer state
    components. *)

val merge_aval : Intval.Ctx.ctx -> t -> t -> aval -> aval -> aval

val merge : ?widen:bool -> gen:Intval.Gen.t -> t -> t -> t
(** Merge two whole states through one shared stride-discovery context,
    so all integer state components (ρ, stk, NR bounds, shift indices)
    can share variable unknowns (§3.5). *)

(** {2 Fact invalidation} *)

val kill_nos : t -> Loc.t list -> t
(** Remove null-or-same facts about possibly-written locations from every
    value in the state. *)

val kill_must_src : t -> (must_src -> bool) -> t
val kill_all_must_src : t -> t
val kill_all_eprov : t -> t

val eprov_after_store :
  t -> src:must_src option -> idx:Intval.t -> displace:bool -> t
(** Refine element provenances across an object-array store: facts about
    the must-same array at a provably different (nonzero constant delta)
    index survive; with [displace], facts at provably the same index
    become displaced (first half of a swap); everything else — including
    facts about other or unknown sources, which may alias the stored-to
    array — dies. *)

(** {2 Stack and locals} *)

exception Analysis_bug of string

val push : aval -> t -> t
val pop : t -> aval * t
val pop_int : t -> Intval.t * t
val pop_ref : t -> refinfo * t
val set_local : t -> int -> aval -> t
val local : t -> int -> aval
