(** Deterministic execution harness: interleaves mutator threads and
    collector increments, triggers and finishes marking cycles, and
    produces a run report.  Deterministic for a given seed — the
    soundness property tests sweep seeds to explore adversarial
    mutator/collector interleavings. *)

type gc_choice =
  | No_gc
  | Satb of { steps_per_increment : int; pacing : Pacer.config }
  | Incr of { steps_per_increment : int; pacing : Pacer.config }
  | Retrace of { steps_per_increment : int; pacing : Pacer.config }
  | Hybrid of { steps_per_increment : int; pacing : Pacer.config }

(** The [make_*] constructors take {e either} [?trigger_allocs] — the
    deprecated fixed-allocation-count alias ([Pacer.Fixed n], bit-for-bit
    the legacy behaviour) — or [?pacing], the full pacer configuration;
    passing both raises [Invalid_argument].  With neither,
    {!Pacer.default_config}'s heap-growth goal paces the run. *)

val make_satb :
  ?steps_per_increment:int ->
  ?trigger_allocs:int ->
  ?pacing:Pacer.config ->
  unit ->
  gc_choice

val make_incr :
  ?steps_per_increment:int ->
  ?trigger_allocs:int ->
  ?pacing:Pacer.config ->
  unit ->
  gc_choice

val make_retrace :
  ?steps_per_increment:int ->
  ?trigger_allocs:int ->
  ?pacing:Pacer.config ->
  unit ->
  gc_choice

val make_hybrid :
  ?steps_per_increment:int ->
  ?trigger_allocs:int ->
  ?pacing:Pacer.config ->
  unit ->
  gc_choice

val gc_name : gc_choice -> string
(** The chosen collector's display name, read from its policy. *)

val caps_of_choice : gc_choice -> Gc_hooks.caps
(** The capability record the chosen collector is expected to expose,
    read from its policy — the single truth flag-level compatibility
    checks and the run-start assertion both consult.  {!run} raises
    [Invalid_argument] if the installed collector's capabilities
    disagree. *)

type gc_summary = {
  cycles : int;
  total_violations : int;
  final_pause_works : int list;  (** per cycle, oldest first *)
  pause_steps : int list;
      (** mutator instruction count at which each final pause began,
          parallel to [final_pause_works] — the profiler's MMU/pause
          timeline (also emitted as [gc.pause] trace events) *)
  mark_increments : int list;
  logged_or_dirtied : int list;
      (** barrier log entries per cycle: SATB pre-values, dirty cards, or
          hybrid shades *)
  retraced : int list;
      (** forced whole-object re-scans per cycle: retrace-list entries
          under [Retrace], repair-set objects under [Hybrid], else 0 *)
  reports : Marker.cycle_report list;
      (** the marker's cycle reports, oldest first: the per-cycle counts
          behind the [gc.*] and [retrace.*] registry counters *)
}

type report = {
  machine : Interp.t;
  steps : int;
  dyn : Interp.dyn_stats;
  cost_units : int;
  barrier_units : int;
  gc : gc_summary option;
  pacer : Pacer.stats option;
      (** pacing outcome — trigger, degraded-cycle and assist counts,
          peak live units; [None] only under [No_gc] *)
  hard_stop : string option;
      (** the hard heap limit fired: the run was aborted cleanly with
          this diagnostic (the in-flight cycle was still finished and
          checked) *)
  thread_errors : (int * string) list;
  loop_s : float;
      (** wall time of the scheduling loop alone — mutator slices plus
          safepoint/GC work, excluding machine construction and (for the
          threaded engine) up-front method compilation.  The
          steady-state number benchmarks compare across engines. *)
  gc_s : float;
      (** portion of [loop_s] spent inside safepoint work — collector
          increments, pauses, pacing, revocation — which is
          engine-invariant by construction (the engines share every GC
          hook).  [loop_s -. gc_s] is mutator time. *)
}

val run :
  ?cfg:Interp.config ->
  ?gc:gc_choice ->
  ?engine:[ `Interp | `Threaded ] ->
  ?quantum:int ->
  ?seed:int ->
  ?gc_period:int ->
  ?chaos:Chaos.t ->
  ?retrace_budget:int ->
  ?observer:(Interp.t -> unit) ->
  Jir.Program.t ->
  entry:Jir.Types.method_ref ->
  report
(** [engine] selects the execution substrate: [`Interp] (default), the
    step-accurate tree-walking interpreter, or [`Threaded], the
    direct-threaded compiled engine ({!Exec}) — same safepoint cadence,
    counters, collectors and chaos faults, ≈10x the steps/sec.
    [chaos] injects the given fault plan at safepoints (its plan may
    also override [quantum]/[gc_period]); [retrace_budget] bounds the
    retrace collector's per-cycle re-scan queue (see {!Retrace_gc}).
    Startup capability guards and mid-run guard failures revoke
    dependent elisions when [cfg] wires a guard table.

    [observer] is the heap observatory's cycle-end hook: passing one
    arms {!Interp.t.track_heap} before the first instruction, installs a
    flight-recorder census source (so a hard-limit dump flushes the
    in-flight cycle's heap state), and invokes the hook after every
    completed cycle's final pause — survivors still carry their mark
    origins and the cycle's elided-store log has not been reset yet.

    At [run.finish] — hard-limit aborts included — the run adds its
    totals to the registry counters once: [jrt.*] from the machine's
    fields, [gc.*] and [retrace.*] from the marker's cycle reports,
    [pacer.*] from {!Pacer.stats} and [chaos.*] from {!Chaos.stats}, and
    sets the [pacer.*] gauges to their final values.  Those fields are
    the counts' only home. *)
