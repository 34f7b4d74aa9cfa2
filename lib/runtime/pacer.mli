(** The per-run GC pacing controller, shared by all four collectors: it
    decides when marking cycles start (fixed trigger, heap-growth goal,
    or MMU/percentile-driven auto mode), degrades gracefully under a
    soft memory limit (boosted increments, forced allocate-black,
    allocation assists) and aborts cleanly — never corrupting state — at
    a hard limit.

    State machine: [Normal → Degraded → Hard_stop], with entry at the
    soft limit and exit only at a cycle boundary below 90% of it
    (hysteresis).  All sizes are in heap units ({!Heap.size_units}). *)

type mode =
  | Fixed of int
      (** the legacy allocation-count pacing: a cycle every [n]
          allocations *)
  | Goal of float
      (** heap-growth target: next trigger = live-at-mark-end × goal *)
  | Auto
      (** [Goal] retuned each cycle from pause percentiles and MMU *)

val mode_name : mode -> string

type config = {
  mode : mode;
  soft_limit : int option;  (** heap units; arms graceful degradation *)
  hard_limit : int option;  (** heap units; arms the clean abort *)
  goal_floor : int;
      (** minimum trigger in heap units for the goal modes (also the
          first-cycle trigger) *)
}

val default_goal : float
val default_goal_floor : int

val default_config : config
(** [Goal default_goal] with no limits — calibrated so every bundled
    workload cycles with no flags at all. *)

val config_of_trigger : int -> config
(** [Fixed n], no limits: the legacy allocation-count pacing, bit for
    bit — what the harness pins for its committed baselines. *)

type state = Normal | Degraded | Hard_stop

val state_name : state -> string

exception Hard_limit of string
(** Raised by {!before_alloc} when an allocation would push the live
    heap over the hard limit.  The allocation is refused {e before} it
    happens, so the live size never exceeds the limit; the runner
    catches this, finishes the in-flight cycle (invariants still get
    checked) and reports the diagnostic. *)

type t

val create : ?collector:string -> ?increment_budget:int -> config -> t
(** [increment_budget] is the collector's per-increment mark budget —
    auto mode's yardstick for "this pause was negligible".  Raises
    [Invalid_argument] for contradictory configs (soft ≥ hard, goal ≤
    1.0). *)

val state : t -> state
val degraded : t -> bool
val trigger_units : t -> int
val goal : t -> float

val before_alloc : t -> Heap.t -> units:int -> unit
(** Admission control for one allocation of [units] heap units: may
    enter degraded mode, and raises {!Hard_limit} if the allocation
    would exceed the hard limit. *)

val note_assist : t -> unit
(** The allocating thread ran one increment of marking on the
    collector's behalf (degraded mode); reconciles with the
    interpreter's assist counter. *)

val should_start : t -> Heap.t -> bool
(** Should a cycle start now (the collector being idle)?  Immediately
    true while degraded. *)

val note_cycle_start : t -> Heap.t -> unit
(** Emit the [pacer.trigger] provenance event for a cycle start. *)

val note_cycle_end : t -> Heap.t -> at_step:int -> pause_work:int -> unit
(** Cycle bookkeeping: recompute the trigger from live-at-mark-end ×
    goal, run auto mode's feedback retune, and apply the
    degradation-exit hysteresis. *)

val at_safepoint : t -> Heap.t -> int
(** Poll the state machine at a safepoint; returns the number of
    {e extra} collector increments the runner must run now (degraded
    mode's shortened mark budgets; 0 while normal). *)

val note_hard_stop : t -> string -> unit

type stats = {
  p_state : state;
  p_goal : float;
  p_trigger_units : int;
  p_cycles : int;
  p_degraded_entries : int;
  p_degraded_cycles : int;
  p_assists : int;
  p_max_live_units : int;
  p_last_live_units : int;
      (** live units the last finished cycle left behind (0 before the
          first cycle end) *)
  p_hard_stop : string option;
}

val stats : t -> stats
