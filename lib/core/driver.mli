(** End-to-end "JIT compilation" pipeline: verify → inline → analyze,
    bundling the expanded program with per-site barrier verdicts keyed the
    way the runtime looks them up, plus the compile-time measurements used
    by the Figure 2 reproduction. *)

type site_key = {
  sk_class : Jir.Types.class_name;
  sk_method : Jir.Types.method_name;
  sk_pc : int;  (** pc in the {e inlined} method *)
}

val assumptions_of_reason : Analysis.reason -> Jir.Types.assumption list
(** Unconditional verdicts (pre-null field, null-or-same, dead code)
    carry no assumptions; §3 array verdicts record mode A; the §4.3
    move-down and swap extensions additionally depend on a single
    mutator and on the collector (scan direction / retrace protocol). *)

val ins_assumptions_of_reason : Analysis.ins_reason -> Jir.Types.assumption list
(** Guards of the {e insertion}-half verdict alone.  Null and literal
    in-method freshness are unconditional (the collector's
    allocate-black plus remark re-scan cover them); freshness proved
    through a callee summary stands on the closed world. *)

type compiled = {
  program : Jir.Program.t;  (** after inlining *)
  results : Analysis.method_result list;
  verdicts : (site_key, Analysis.verdict) Hashtbl.t;
  guards : (site_key, Jir.Types.assumption list) Hashtbl.t;
      (** guard table: assumption set of every elided conditional site *)
  ins_guards : (site_key, Jir.Types.assumption list) Hashtbl.t;
      (** insertion-half guard table, kept apart from [guards] so a
          hybrid collector can revoke one half of a barrier while the
          other stays elided *)
  inline_limit : int;
  conf : Analysis.config;
  summaries : Summary.table option;
      (** the interprocedural summary table, when [conf.summaries] *)
  analysis_seconds : float;
      (** monotonic wall-clock seconds in the analysis proper
          ({!Telemetry.now_s}, so traces and verbose timings agree) *)
  inline_seconds : float;
  summary_seconds : float;  (** wall-clock seconds computing summaries *)
}

type static_stats = {
  total_sites : int;
  elided_sites : int;
  field_sites : int;
  field_elided : int;
  array_sites : int;
  array_elided : int;
  static_sites : int;
  by_reason : (Analysis.reason * int) list;
  ins_elided_sites : int;
      (** sites whose {e insertion} (Dijkstra) half is removable — only
          a hybrid collector can cash these in *)
  both_elided_sites : int;  (** sites with both halves removable *)
  by_ins_reason : (Analysis.ins_reason * int) list;
}

val compile :
  ?verify:bool ->
  ?inline_limit:int ->
  ?conf:Analysis.config ->
  Jir.Program.t ->
  compiled

val needs_barrier : compiled -> site_key -> bool
(** Does the store at the site still need its SATB barrier?  Unknown
    sites conservatively do. *)

val verdict : compiled -> site_key -> Analysis.verdict option

val retrace_check : compiled -> site_key -> [ `None | `Open | `Close ]
(** Tracing-state check emitted at a swap-elided store: [`Open] at the
    pair's first store (also opens the safepoint-free window), [`Close]
    at the second, [`None] everywhere else. *)

val site_assumptions : compiled -> site_key -> Jir.Types.assumption list
(** Assumption set the elision at the site depends on; empty for kept
    sites and unconditional verdicts. *)

val ins_site_assumptions : compiled -> site_key -> Jir.Types.assumption list
(** Assumption set the {e insertion}-half elision at the site depends
    on; empty for kept-insertion sites and unconditional verdicts. *)

(** Split verdict for a hybrid (deletion + insertion) barrier: how the
    deletion verdict ([v_elide], overwritten-value facts) and the
    insertion verdict ([v_ins_elide], stored-value facts) combine at one
    site. *)
type hybrid_verdict = [ `Keep | `Elide_deletion | `Elide_insertion | `Elide_both ]

val string_of_hybrid_verdict : hybrid_verdict -> string

val hybrid_verdict : compiled -> site_key -> hybrid_verdict
(** The split verdict at the site; unknown sites are [`Keep]. *)

val ins_repair_needed : compiled -> site_key -> bool
(** Must the destination object be queued for a remark-time re-scan when
    the insertion half is elided at this site?  True for the freshness
    verdicts (the allocation may predate the current marking cycle);
    false for provably-null stores and dead code. *)

val guarded_assumptions : compiled -> Jir.Types.assumption list
(** Deduplicated union of all sites' assumption sets, in declaration
    order. *)

val string_of_site_key : site_key -> string
(** ["Class.method\@pc"], the site id used in traces and [--explain]. *)

(** Why a site's barrier was removed: the rule that fired, the chain of
    abstract facts it rests on, and the runtime guards the verdict
    depends on.  What [analyze --explain] prints, and what revocation
    events carry so a revoked site names its original justification. *)
type provenance = {
  pv_key : site_key;
  pv_kind : Jir.Types.store_kind;
  pv_reason : Analysis.reason;
  pv_rule : string;  (** short rule name, e.g. ["pre-null-field"] *)
  pv_facts : string list;  (** the abstract-fact chain, outermost first *)
  pv_guards : Jir.Types.assumption list;
  pv_summary_dependent : bool;
}

val explain : compiled -> site_key -> provenance option
(** Provenance for the verdict at the site; [None] for unknown sites. *)

val explanations : compiled -> provenance list
(** Provenance of every {e elided} site, sorted by site id
    (class, method, pc) so the output is deterministic. *)

val pp_provenance : provenance Fmt.t

val justification : compiled -> site_key -> string option
(** One-line justification string attached to runtime revocation
    events. *)

val static_stats : compiled -> static_stats
val pp_static_stats : static_stats Fmt.t

val barrier_footprint : int
(** Inline code-space cost of one retained SATB barrier, in machine
    instructions (§1: "between 9 and 12 RISC instructions"). *)

val codegen_expansion : int
(** Machine instructions per bytecode in the code-size model. *)

val code_size : compiled -> int
(** Figure 3's metric: expanded bytecodes plus barrier footprints. *)
