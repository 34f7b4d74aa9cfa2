(** End-to-end "JIT compilation" pipeline: verify → inline → analyze,
    bundling the expanded program with every store site's verdict record
    keyed the way the runtime looks it up, plus the compile-time
    measurements used by the Figure 2 reproduction. *)

(** One store site as compiled: the analysis's verdict and the runtime
    record built from it, once, at compile time. *)
type site_verdict = {
  analysis : Analysis.verdict;
  barrier : Jir.Types.verdict;
      (** Both halves as proved, with their full guard sets: §3 array
          verdicts rest on mode A, the §4.3 move-down and swap
          extensions also on a single mutator and on the collector, an
          insertion-half freshness proved through a callee summary on
          the closed world, and every elision of a method whose analysis
          consulted a summary on the closed world too.  Also the
          remark-repair flag (freshness proofs), the swap pair's
          tracing-state check and one lazy justification per elided
          half, e.g. ["ins-summary-fresh (guards: closed-world)"]. *)
}

type compiled = {
  program : Jir.Program.t;  (** after inlining *)
  results : Analysis.method_result list;
  sites : (Jir.Types.site, site_verdict) Hashtbl.t;
      (** every reference-store site of [program] *)
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
(** Holds the justifications' closures: never compare one structurally. *)

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

val barrier : compiled -> Jir.Types.site -> Jir.Types.verdict
(** The verdict record the barrier at the site compiles from;
    {!Jir.Types.keep} for a site the analysis never saw. *)

(** Why a site's barrier was removed: the rule that fired, the chain of
    abstract facts it rests on, and the runtime guards the verdict
    depends on.  What [analyze --explain] prints, and what revocation
    events carry so a revoked site names its original justification. *)
type provenance = {
  pv_key : Jir.Types.site;
  pv_kind : Jir.Types.store_kind;
  pv_reason : Analysis.reason;
  pv_rule : string;  (** short rule name, e.g. ["pre-null-field"] *)
  pv_facts : string list;  (** the abstract-fact chain, outermost first *)
  pv_guards : Jir.Types.assumption list;
}

val explanations : compiled -> provenance list
(** Provenance of every {e elided} site, sorted by site id
    (class, method, pc) so the output is deterministic. *)

val pp_provenance : provenance Fmt.t

val static_stats : compiled -> static_stats
val pp_static_stats : static_stats Fmt.t

val barrier_footprint : int
(** Inline code-space cost of one retained SATB barrier, in machine
    instructions (§1: "between 9 and 12 RISC instructions"). *)

val codegen_expansion : int
(** Machine instructions per bytecode in the code-size model. *)

val code_size : compiled -> int
(** Figure 3's metric: expanded bytecodes plus barrier footprints. *)
