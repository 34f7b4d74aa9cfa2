(** Deterministic execution harness: interleaves mutator threads and
    collector increments, triggers and finishes marking cycles, and
    produces a run report.  Deterministic for a given seed — the
    soundness property tests sweep seeds to explore adversarial
    mutator/collector interleavings.  A program that never spawns runs
    from safepoint to safepoint, with no quanta. *)

(** The four concurrent collectors. *)
type collector = Satb | Incr | Retrace | Hybrid

val collectors : collector list
(** The one list of collectors — satb, incr, retrace, hybrid — in the
    order every table, sweep and command-line listing shows them. *)

val collector_name : collector -> string
(** The short name tables and command-line flags use: ["satb"],
    ["incr"], ["retrace"], ["hybrid"]. *)

type gc_choice =
  | No_gc
  | Gc of {
      policy : Marker.policy;  (** what the run's marker runs *)
      steps_per_increment : int;
      pacing : Pacer.config;
    }

val make :
  ?steps_per_increment:int -> ?pacing:Pacer.config -> collector -> gc_choice
(** The collector's default policy.  [steps_per_increment] defaults to
    64.  [pacing] is the pacer configuration (fixed allocation-count
    pacing is [Pacer.config_of_trigger n]); without it
    {!Pacer.default_config}'s heap-growth goal paces the run.  The
    [make_*] functions are [make] of one collector.  Any other policy
    (a retrace budget, an ascending scan) is a [Gc] built directly. *)

val make_satb :
  ?steps_per_increment:int ->
  ?pacing:Pacer.config ->
  unit ->
  gc_choice

val make_incr :
  ?steps_per_increment:int ->
  ?pacing:Pacer.config ->
  unit ->
  gc_choice

val make_retrace :
  ?steps_per_increment:int ->
  ?pacing:Pacer.config ->
  unit ->
  gc_choice

val make_hybrid :
  ?steps_per_increment:int ->
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
          [--metrics] sums into its [gc.*] and [retrace.*] names *)
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
  out_of_steps : bool;
      (** the program used its whole [max_steps] budget without
          finishing and was stopped cleanly, the way a hard stop is (the
          in-flight cycle was still finished and checked); not a pacer
          event *)
  thread_errors : (int * string) list;
  loop_s : float;
      (** wall time of the scheduling loop alone — mutator slices plus
          safepoints, excluding machine construction and, for the
          threaded engine, {!Exec.create}: binding the shared code, and
          compiling it on the program content's first threaded run.  The
          steady-state number benchmarks compare across engines. *)
  gc_s : float;
      (** portion of [loop_s] spent in the safepoints that had collector,
          chaos or revocation work — marking under way, a cycle due (the
          pacer's trigger, or the pacer degraded), a chaos plan, or
          revocations pending — and in the final pause of a cycle still
          marking when the loop ends.  Engine-invariant by construction
          (the engines share every GC hook).  An idle safepoint reads no
          clock: 0.0 under [No_gc] without chaos.  [loop_s -. gc_s] is
          mutator time, idle safepoint polls included, and
          [gc_s <= loop_s] always. *)
}

val run :
  ?cfg:Interp.config ->
  ?gc:gc_choice ->
  ?engine:[ `Interp | `Threaded ] ->
  ?quantum:int ->
  ?seed:int ->
  ?gc_period:int ->
  ?chaos:Chaos.t ->
  ?observer:(Interp.t -> unit) ->
  Jir.Program.t ->
  entry:Jir.Types.method_ref ->
  report
(** [engine] selects the execution substrate: [`Interp] (default), the
    step-accurate tree-walking interpreter, or [`Threaded], the
    direct-threaded compiled engine ({!Exec}) — same safepoint cadence,
    counters, collectors and chaos faults, ≈10x the steps/sec.

    Each live thread runs [quantum] instructions per turn (default 50;
    with a nonzero [seed], a draw in [1, quantum]), and a safepoint
    falls every [gc_period] mutator instructions (default 32).  A
    program with no [spawn] instruction ({!Jir.Program.spawns}) has one
    thread for its whole run, so it has no turns: its slices end only
    at safepoints, and neither [quantum] nor [seed] changes what it
    does.  A [quantum] below 1 raises [Invalid_argument] before the run
    starts.

    [chaos] injects the given fault plan at safepoints (its plan may
    also override [quantum]/[gc_period]).
    Startup capability guards and mid-run guard failures revoke
    dependent elisions when [cfg.revoke] holds.

    [observer] is the heap observatory's cycle-end hook: passing one
    arms {!Interp.t.track_heap} before the first instruction, installs a
    flight-recorder census source (so a hard-limit dump flushes the
    in-flight cycle's heap state), and invokes the hook after every
    completed cycle's final pause — survivors still carry their mark
    origins and the cycle's elided-store log has not been reset yet.

    The report is the run's only record of its counts — hard-limit
    aborts included: the machine's fields, the marker's cycle reports in
    [gc] and the pacer's {!Pacer.stats}.  [--metrics] renders its
    [jrt.*], [gc.*], [retrace.*] and [pacer.*] names from them, and its
    [chaos.*] names from the plan's {!Chaos.stats}. *)
