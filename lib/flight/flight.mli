(** The runtime's one event pipeline: an always-on flight recorder whose
    typed events are also what the JSONL trace, the timeline and every
    Chrome export render.

    Every GC, pacer, revocation, chaos and heap-census event is
    recorded once, by {!record}: the event is stamped with the current
    mutator step, kept in a bounded ring (the last 4096 events), and —
    when a [--trace] sink or a [--chrome-trace] recorder is armed —
    rendered by {!render} and streamed through {!Telemetry.emit}, which
    adds its [ts] and [seq].  The dump, [satbelim timeline], the anomaly
    detectors and the engine-parity diff read the same values, so a
    trace, a timeline and a Chrome view of one run cannot disagree.

    The recorder is process-global, unlike a run's counts, which live in
    its report: the runner resets it at run start ({!begin_run}),
    installs a step source and per-site snapshot source, and polls the
    anomaly detectors at safepoints.  A dump ({!dump_json}) is fully
    deterministic — events carry mutator steps, never wall-clock — so
    `satbelim timeline` output is byte-stable for a fixed seed.

    Auto-capture: when armed (CLI/bench entry points only, never under
    `dune runtest`), the first oracle violation, hard-limit abort,
    anomaly-detector firing or bench-gate failure dumps the ring to a
    stable path ([FLIGHT_dump.json]); {!captured} reports where so the
    CLI can print it. *)

(** {1 Events} *)

include module type of struct
  include Event
end
(** @inline *)

(** {1 Dumps and timelines} *)

include module type of struct
  include Dump
end
(** @inline *)

(** {1 Recording} *)

val enabled : unit -> bool
val set_enabled : bool -> unit
(** Ring switch, on by default; the overhead experiment (E18) A/Bs it.
    An armed trace still receives every event while the ring is off. *)

val record : event -> unit
(** Record one event at the installed step source's current step: keep
    it in the ring (while enabled) and stream it to the armed trace. *)

val set_step_source : (unit -> int) -> unit
(** The mutator-step clock, installed by the runner
    ([fun () -> m.instr_count]). *)

val set_meta : (string * string) list -> unit
(** Run context stamped into dumps (collector, engine, entry, seed, ...). *)

val set_sites_source : (unit -> site_state list) -> unit
(** Called at dump time to snapshot per-site elision state; the runner
    installs a closure over the live machine. *)

val set_census_source : (unit -> (int * int * int) option) -> unit
(** Called at dump time to snapshot the heap census totals
    [(gc cycle, live objects, live units)].  Installed only when a heap
    observer is armed — so a hard-limit abort mid-cycle still flushes
    the in-flight cycle's census into the dump — and reset by
    {!begin_run}; ordinary dumps carry nothing. *)

val begin_run : unit -> unit
(** Reset the ring, detector state and run metadata for a fresh run.
    Keeps the enabled flag and the capture arming. *)

val events : unit -> entry list
(** Surviving ring contents, oldest first. *)

val recorded : unit -> int
(** Total events recorded since {!begin_run} (>= length of {!events}
    once the ring has wrapped). *)

val capacity : unit -> int

val set_capacity : int -> unit
(** Reallocate the ring (tests only); implies {!begin_run}. *)

(** {1 Anomaly detectors} *)

val poll : unit -> unit
(** Scan events recorded since the last poll and update the detectors:
    revocation storm, pacing oscillation, assist spiral, degradation
    cascade.  Each fires at most once per run, records an {!Anomaly}
    event and triggers auto-capture.  Called by the runner at
    safepoints; cheap when nothing new was recorded. *)

val anomalies : unit -> (string * int) list
(** Detectors fired this run, as [(name, step)], oldest first. *)

(** {1 Auto-capture} *)

val arm_capture : ?dir:string -> unit -> unit
(** Arm auto-capture (CLI/bench entry points call this; tests never do,
    so negative soundness runs don't spray dump files).  [dir] defaults
    to the current directory. *)

val disarm_capture : unit -> unit

val capture : reason:string -> string option
(** Dump the ring to [<dir>/FLIGHT_dump.json] if armed and nothing was
    captured yet this process; returns the path when a dump was written.
    First capture wins — later triggers keep the earlier evidence. *)

val captured : unit -> (string * string) option
(** [(path, reason)] of the capture performed this process, if any. *)

(** {1 Writing dumps} *)

val dump_json : reason:string -> Telemetry.json
(** Deterministic dump (version 3) of the ring: run metadata, events
    rendered by {!to_json}, per-site snapshot (sorted by site id) and
    fired anomalies. *)

val dump_to_file : reason:string -> string -> unit
