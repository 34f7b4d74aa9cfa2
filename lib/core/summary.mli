(** Interprocedural method summaries.

    The paper's analyses are intraprocedural and lean on the inliner:
    every non-inlined [Invoke] havocs the abstract state (all reference
    arguments escape, must-alias facts die, the return value is
    [GlobalRef]).  This module computes compositional per-method
    summaries — escape information in the style of Hill & Spoto's
    abstract-interpretation escape analysis, and entry/exit nullness
    facts in the style of Hubert's non-null inferencer — so the
    summary-aware call transfer in {!Analysis} can keep elision precision
    at small inline limits.

    Summaries are computed bottom-up over the {!Callgraph} SCC
    condensation; recursive components are iterated to a fixpoint under a
    widened round bound (past the bound, every member degrades to the
    havoc summary, which is exactly the old blanket behaviour). *)

open Jir.Types

module Iset : Set.S with type elt = int
module Fmap : Map.S with type key = Field_id.t

type vshape = {
  vs_params : Iset.t;
      (** may equal, or be reachable from, these parameters *)
  vs_fresh : bool;  (** may be an object allocated during the call *)
  vs_global : bool;  (** may be a pre-existing / escaped object *)
}
(** Shape of a value as the caller can name it.  All components empty /
    false means the value is definitely null. *)

type write = {
  w_val : vshape;  (** join of every reference written to the location *)
  w_int : bool;  (** an integer write to the location may occur *)
  w_must : bool;
      (** the location is written on every normal return, with the
          parameter itself (not something reachable from it) as the
          receiver — the caller may apply a strong update *)
}
(** Effect on one field of (an object reachable from) a parameter. *)

type param_summary = {
  ps_escapes : bool;
      (** the argument (or something reachable from it) may become
          reachable from another thread *)
  ps_writes : write Fmap.t;  (** per-field may-write effects *)
  ps_writes_top : bool;
      (** unknown fields of the argument's reachable objects may be
          written — the caller must treat the argument as escaped *)
}

type ret_shape =
  | Ret_plain  (** void or integer return *)
  | Ret_fresh of class_name * (vshape * bool) Fmap.t
      (** a freshly allocated, unescaped object of the class; the map
          gives the may-written fields (reference shape, integer-write
          flag) — unlisted reference fields are definitely null and
          unlisted integer fields definitely zero *)
  | Ret_shape of vshape  (** anything else *)

(** Statics the method (transitively) writes. *)
type statics_w = Sw_set of field_ref list | Sw_top

type t = {
  s_params : param_summary array;  (** indexed by parameter position *)
  s_ret : ret_shape;
  s_statics : statics_w;
  s_elems_public : bool;
      (** may store into elements of a caller-visible (global-reachable)
          object array: element-provenance facts must die.  Writes
          through parameters are visible per-field in [ps_writes]. *)
  s_global_heap : bool;
      (** may write fields of objects it did not allocate and was not
          passed (reached through statics) *)
  s_allocates : bool;
  s_spawns : bool;
  s_calls_unknown : bool;
      (** some transitive callee had no summary; its effects were folded
          in as havoc *)
}

val pure : t -> bool
(** No caller-visible side effect at all: nothing escapes, no parameter
    or global heap writes, no statics written, no spawn, no unknown
    callee.  (A pure method may still allocate.) *)

val havoc : meth -> t
(** The blanket worst-case summary: all arguments escape with unknown
    writes, all statics written, global return. *)

val equal : t -> t -> bool

val pp : Jir.Program.t -> t Fmt.t
(** Field names come from the program's numbering. *)

(** {2 Summary tables} *)

type table

val find : table -> method_ref -> t option
val n_methods : table -> int

val n_havoced : table -> int
(** Methods whose summary degraded to {!havoc} (recursive components
    past the fixpoint bound). *)

val of_program : ?fixpoint_bound:int -> Jir.Program.t -> table
(** Summarize every method, bottom-up over the call-graph SCC
    condensation.  Recursive components start from the bottom summary
    and iterate; if a component has not converged after
    [fixpoint_bound] rounds (default 12), its members are widened to
    {!havoc}. *)
