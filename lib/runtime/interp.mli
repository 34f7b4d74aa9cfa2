(** A multi-threaded bytecode interpreter with write-barrier
    instrumentation: per-site execution and pre-null counters (the
    machinery behind the paper's Table 1, including the "potentially
    pre-null" upper bound of §4.2), one verdict record per store site,
    the one barrier body both engines share, the RISC cost model, and
    collector hooks. *)

exception Runtime_bug of string
(** A broken invariant of the runtime (or unverified input reaching it). *)

exception Out_of_steps of int
(** The program used its whole instruction budget ([config.max_steps],
    the payload) without finishing.  Raised by both engines when the
    next instruction is attempted, after charging it; {!Runner.run}
    turns it into a clean stop. *)

val max_array_length : int
(** The longest array [newarray] allocates, 2{^20} elements; a longer
    request throws the program's [bounds] exception, exactly as a
    negative length does, under either engine. *)

val max_call_depth : int
(** The most frames a thread holds, 2{^18}; a call past it kills the
    thread with the error ["stack overflow"] under either engine, and no
    handler catches it. *)

type site_stats = {
  st_kind : Jir.Types.store_kind;
  st_verdict : Jir.Types.verdict;
      (** as the policy gave it at materialization *)
  mutable st_del_elided : bool;
      (** the deletion half is compiled out and not revoked *)
  mutable st_ins_elided : bool;  (** likewise the insertion half *)
  mutable execs : int;
  mutable pre_null_execs : int;
  mutable paid_execs : int;
      (** executions that ran a full barrier (kept, revoked or degraded);
          [execs = paid_execs + elided_execs] always holds — under the
          hybrid flavor a store is elided iff {e both} halves skipped *)
  mutable elided_execs : int;  (** executions that skipped the barrier *)
  mutable del_paid_execs : int;  (** hybrid: deletion halves executed *)
  mutable del_elided_execs : int;  (** hybrid: deletion halves skipped *)
  mutable ins_paid_execs : int;  (** hybrid: insertion halves executed *)
  mutable ins_elided_execs : int;  (** hybrid: insertion halves skipped *)
  mutable barrier_units : int;
      (** modelled RISC units charged at this site (barriers + tracing
          checks); sums to [t.barrier_units] over all sites *)
  mutable revocations : int;
      (** times this site (either half) was patched back *)
}

type config = {
  policy : Jir.Types.site -> Jir.Types.verdict;
  revoke : bool;
      (** record guard failures and revoke the elisions that depend on
          them; [false] ignores them — no guards were wired, or the
          run goes open-loop so the oracle can catch what guards would
          have *)
  satb_mode : Barrier_cost.satb_mode;
  barrier_flavor : [ `Satb | `Hybrid ];
  max_steps : int;
}

val default_config : config
(** Every site keeps its barrier ({!Jir.Types.keep}); guard failures are
    ignored. *)

type frame = {
  f_class : Jir.Types.class_name;
  f_meth : Jir.Types.meth;
  mutable pc : int;
  locals : Value.t array;
  mutable ostack : Value.t list;
}

type thread = {
  tid : int;
  mutable frames : frame list;
  mutable depth : int;  (** [List.length frames] *)
  mutable finished : bool;
  mutable error : string option;
}

type t = {
  prog : Jir.Program.t;
  heap : Heap.t;
  statics : (Jir.Types.class_name * Jir.Types.field_name, Value.t) Hashtbl.t;
  mutable threads : thread list;
  mutable next_tid : int;
  stats : (Jir.Types.site, site_stats) Hashtbl.t;
  cfg : config;
  mutable gc : Gc_hooks.t;
  mutable pacer : Pacer.t option;
      (** pacing controller; admission-controls every allocation and
          drives degraded-mode allocation assists *)
  mutable assist_execs : int;
      (** collector increments run on allocating threads' behalf while
          the pacer was degraded *)
  mutable instr_count : int;
  mutable cost_units : int;
  mutable barrier_units : int;
  mutable barriers_executed : int;
  mutable elided_barrier_execs : int;
  mutable retrace_checks : int;
  mutable in_no_safepoint : bool;
      (** a swap window is open: the scheduler must defer collector work
          until the closing store's check clears this *)
  mutable revoked : Jir.Types.assumption list;
  mutable pending_revocations : Jir.Types.assumption list;
  mutable revocation_events : int;
  mutable revoked_sites : int;
  mutable guarded_writes : int list;
  mutable swap_degraded : bool;
  mutable degradations : int;
  mutable degraded_swap_execs : int;
  mutable external_paid_execs : int;
      (** chaos-injected external stores that ran a full barrier — no site
          of their own; the profiler attributes them to an "external" row
          so per-site totals still reconcile with the global counters *)
  mutable external_elided_execs : int;
      (** chaos-injected external stores through live guarded elisions *)
  field_index : (Jir.Types.field_ref, int) Hashtbl.t;
  alloc_sites : (Jir.Types.site, int) Hashtbl.t;
      (** interned {!Sitemap} ids of allocation sites, cached per program
          point so the allocation fast path does no string formatting *)
  mutable track_heap : bool;
      (** heap observatory armed: elided stores during marking append to
          [elided_write_log] (a single flag test when off) *)
  mutable elided_write_log : (int * int) list;
      (** [(obj, verdict_class)] for stores whose barrier (or a half of
          it) was elided while marking; verdict classes are {!ew_full},
          {!ew_del}, {!ew_ins}, {!ew_both}.  Cleared by
          {!reset_cycle_state}. *)
  mutable stack_roots_override : (unit -> (int * int list) list) option;
      (** installed by the threaded engine, which owns the live thread
          stacks; {!thread_roots}/{!roots} consult it so collectors see
          the same root set in the same order under either engine *)
}

exception Jexn of Jir.Types.exn_kind
(** A runtime exception in the interpreted program, caught by handler
    search ([unwind]); shared with the threaded engine so both unwind
    identically. *)

val jthrow : Jir.Types.exn_kind -> 'a

val bugf : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Runtime_bug} with a formatted message — exported so the
    threaded engine reports invariant violations with byte-identical
    diagnostics. *)

val create : ?cfg:config -> Jir.Program.t -> t
val set_collector : t -> Gc_hooks.t -> unit

val set_pacer : t -> Pacer.t -> unit
(** Install the pacing controller; every subsequent allocation passes
    through {!Pacer.before_alloc} (and may raise {!Pacer.Hard_limit}). *)

val request_revoke : t -> Jir.Types.assumption -> unit
(** Note an assumption observed false; the revocation is applied at the
    next safepoint.  Deduplicated; inert unless [cfg.revoke] holds. *)

val apply_revocations : t -> unit
(** Flip every half depending on a failed assumption back to a full
    barrier and hand the cycle's guarded-write set to the collector for
    snapshot repair.  Must be called at a safepoint. *)

val note_second_mutator : t -> unit
(** A chaos-injected second mutator exists: [Single_mutator] is false. *)

val note_class_load : t -> unit
(** A chaos-injected class load happened: [Closed_world] is false, so
    summary-dependent elisions must revoke. *)

val reset_cycle_state : t -> unit
(** Reset the per-cycle guarded-write set and degradation flag; the
    runner calls this when a marking cycle starts or ends. *)

val set_swap_degraded : t -> unit
(** Enter degraded mode (retrace budget overflow): swap-elided sites
    execute full logging barriers for the remainder of the cycle.  Only
    call at a safepoint. *)

val external_guarded_store :
  t -> obj:int -> idx:int -> v:Value.t -> unit
(** A chaos-injected second mutator's store through a
    [Single_mutator]-guarded elided site: unlogged while such sites are
    live and the assumption unrevoked, a full barrier afterwards. *)

val external_unbarriered_store :
  t -> obj:int -> idx:int -> v:Value.t -> unit
(** A store with no barrier at all (deliberate barrier-skip fault); the
    oracle must catch the damage. *)

val external_alloc : t -> count:int -> unit
(** Chaos-injected allocation ballast: [count] small unreachable objects
    through the normal admission-controlled path, so allocation spikes
    and memory-pressure ramps exercise the pacer exactly like mutator
    pressure (including {!Pacer.Hard_limit}). *)

val spawn_thread : t -> Jir.Types.method_ref -> Value.t list -> thread

val roots : t -> int list
(** All reference values held in thread stacks and statics. *)

val static_roots : t -> int list
(** References held in statics alone — what the hybrid collector marks at
    cycle start (stacks are scanned lazily). *)

val thread_roots : t -> (int * int list) list
(** [(tid, refs held in that thread's frames)] for every thread. *)

val step : t -> thread -> bool
(** Execute one instruction; [false] once the thread has finished. *)

(** {2 The barrier (shared by both engines)} *)

val site_stats : t -> Jir.Types.site -> Jir.Types.store_kind -> site_stats
(** Find or materialize the per-site record from [cfg.policy] (a half
    whose guards were already revoked materializes patched).  Both
    engines materialize a site at its first execution. *)

val store_barrier :
  t -> site_stats -> tid:int -> obj:int -> pre:Value.t -> nv:Value.t -> unit
(** The one barrier body: every reference store of either engine runs
    it, with the site's record in hand.  [obj = -1] for statics; [tid]
    and [nv] feed the insertion half. *)

val elided : t -> site_stats -> bool
(** Is the whole barrier elided: the deletion half under [`Satb], both
    halves under [`Hybrid]? *)

val guards : t -> site_stats -> Jir.Types.assumption list
(** The site's whole guard set as reports show it: the deletion half's
    under [`Satb], both halves' (sorted, deduplicated) under
    [`Hybrid]. *)

val admit : t -> units:int -> unit
(** The pacer's admission control for an allocation of [units] (may
    raise {!Pacer.Hard_limit}), including the degraded-mode assist —
    the first half of {!allocate}, for callers that allocate inline. *)

val allocate : t -> units:int -> (unit -> Heap.obj) -> Heap.obj
(** Allocate through the pacer's admission control (may raise
    {!Pacer.Hard_limit}) and notify the collector — the path both
    engines' [New]/[Newarray] use. *)

(** {2 Heap observatory support}

    Verdict classes of {!t.elided_write_log} entries: which (half of the)
    barrier an elided store skipped, so the float accounting
    ({!Heapscope}) can attribute floating garbage per elision verdict. *)

val ew_full : int
(** Whole barrier elided ([`Satb] flavor). *)

val ew_del : int
(** Hybrid: deletion half elided, insertion half ran. *)

val ew_ins : int
(** Hybrid: insertion half elided, deletion half ran. *)

val ew_both : int
(** Hybrid: both halves elided. *)

val alloc_site : t -> frame -> int
(** Interned {!Sitemap} id of the allocation site at [frame]'s current
    pc, cached per program point (the interpreter's [New]/[Newarray]
    path; the threaded engine interns at compile time instead). *)

type dyn_stats = {
  total_execs : int;
  elided_execs : int;
  pot_pre_null_execs : int;
  field_execs : int;  (** putfield only; statics are counted apart *)
  field_elided : int;
  array_execs : int;
  array_elided : int;
  static_execs : int;  (** putstatic of reference statics (never elided) *)
}

val dyn_stats : t -> dyn_stats
val pp_dyn_stats : dyn_stats Fmt.t
