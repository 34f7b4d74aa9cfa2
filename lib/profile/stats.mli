(** Profiler math: pause-time percentiles and minimum mutator
    utilization (MMU) over sliding windows.

    The runtime is a deterministic interpreter, so the timeline is
    measured in {e mutator instruction steps} and pauses in the
    collectors' {e pause-work units} (objects processed inside the
    stop-the-world pause).  One pause-work unit is costed at one step:
    both count one unit of work the machine performed, which keeps the
    utilization model consistent with how E5 compares collectors.

    The math is {!Jrt.Mmu}, re-exported (the pacer's auto mode shares
    it); only {!of_report} is native to this module. *)

(** {2 Percentiles} *)

type dist = Jrt.Mmu.dist = {
  d_count : int;  (** number of pauses *)
  d_total : int;  (** summed pause work *)
  d_p50 : int;
  d_p90 : int;
  d_p99 : int;
  d_max : int;
}

val dist_of : int list -> dist
(** Nearest-rank percentiles; all zero for the empty list. *)

val percentile : int list -> float -> int
(** [percentile xs p] — nearest-rank percentile [p] (0 < p <= 100) of
    [xs] (need not be sorted); 0 for the empty list. *)

(** {2 Minimum mutator utilization} *)

type pause = Jrt.Mmu.pause = {
  at : int;  (** mutator step at which the pause began *)
  work : int;  (** pause duration, in work units (= steps) *)
}

type timeline = Jrt.Mmu.timeline = {
  steps : int;  (** total mutator instruction steps of the run *)
  pauses : pause list;  (** in timeline order *)
}

val total_time : timeline -> int
(** Combined length: mutator steps plus all pause work. *)

val mmu : timeline -> window:int -> float
(** Minimum mutator utilization over every sliding window of [window]
    time units: [min over t of mutator_time([t, t+w]) / w].  A window
    longer than the whole run is clamped to it (so the value degrades to
    overall utilization); a zero-pause run has MMU 1.0 at every window;
    [window <= 0] is reported as 1.0. *)

val mmu_curve : ?fractions:float list -> timeline -> (int * float) list
(** MMU at windows sized as fractions of the total timeline (default
    1%, 2%, 5%, 10%, 20%, 50%, 100%), deduplicated, ascending; each
    window is at least one unit.  Empty for a zero-length run. *)

val utilization : timeline -> float
(** Overall mutator utilization: steps / (steps + total pause work);
    1.0 for an empty run. *)

(** {2 A run's pauses} *)

type summary = {
  timeline : timeline;
      (** the final-pause works (zero-work pauses dropped) at the steps
          they began *)
  dist : dist;  (** percentiles of every cycle's final-pause work *)
  mmu_10 : float;  (** MMU at a window of a tenth of the timeline *)
  utilization : float;
}

val of_report : Jrt.Runner.report -> summary
(** The one pause summary of a run, which E5, E16 and the profiler all
    read. *)
