(** The per-run GC pacing controller.

    One pacer instance is shared by whichever collector the runner wired
    (SATB, incremental-update, retrace or hybrid); the runner consults it
    to decide {e when} a marking cycle starts, and the interpreter's
    allocation path consults it for the soft/hard memory-limit machinery.
    Three pacing modes:

    - [Fixed n] — the legacy allocation-count pacing: a cycle every [n]
      allocations.  The harness pins it so committed baselines reproduce
      bit-for-bit.
    - [Goal g] — a heap-growth target in the GOGC style: the next cycle
      triggers when the live heap reaches [g ×] the live size measured at
      the end of the previous mark, clamped below by [goal_floor] so the
      first cycle (no previous mark) still happens on small heaps.
    - [Auto] — [Goal] with a feedback loop: after every cycle the goal is
      retuned from the run's pause percentiles and MMU so far
      ({!Mmu}), growing when pauses are provably cheap and shrinking the
      moment they are not.

    Orthogonally to the mode, a {e soft limit} arms the
    degrade-don't-die machinery and a {e hard limit} arms the clean
    abort.  The state machine is [Normal → Degraded → Hard_stop]:

    - [Normal → Degraded] when the live heap reaches the soft limit
      (observed at an allocation or a safepoint).  While degraded the
      pacer starts a cycle immediately, asks the runner for boosted
      collector increments (shortened mark budgets), tells the collector
      to force allocate-black ({!Gc_hooks.t.on_pressure}), and makes
      allocating threads assist marking; [pacer.degraded] telemetry
      records the entry.
    - [Degraded → Normal] only at a cycle boundary, and only once the
      live heap has fallen to 90% of the soft limit — entry/exit
      hysteresis, so the pacer cannot flap across the limit within a
      cycle.
    - [→ Hard_stop] when an allocation would push the live heap {e over}
      the hard limit: the allocation is refused before it happens (the
      live size never exceeds the limit) and {!Hard_limit} aborts the run
      with a diagnostic; the runner finishes the in-flight cycle so every
      invariant is still checked, then reports the stop. *)

type mode = Fixed of int | Goal of float | Auto

let mode_name = function
  | Fixed _ -> "fixed"
  | Goal _ -> "goal"
  | Auto -> "auto"

type config = {
  mode : mode;
  soft_limit : int option;  (** heap units; arms graceful degradation *)
  hard_limit : int option;  (** heap units; arms the clean abort *)
  goal_floor : int;
      (** minimum trigger in heap units for the goal modes: the
          first-cycle trigger, and a lower clamp forever after *)
}

(** Calibrated so the six table-1 workloads all exercise at least one
    full cycle with no flags at all; the micro workloads peak below the
    floor and need an explicit [--soft-limit] (or a fixed trigger) to
    cycle. *)
let default_goal = 1.5

let default_goal_floor = 64

let default_config =
  {
    mode = Goal default_goal;
    soft_limit = None;
    hard_limit = None;
    goal_floor = default_goal_floor;
  }

let config_of_trigger (n : int) : config =
  { default_config with mode = Fixed n }

(* Auto mode's goal clamp and retuning facts.  The controller starts at
   the laziest (largest) goal — rare cycles give the concurrent marker
   time to finish, so remark pauses are smallest — and shrinks
   multiplicatively the moment the evidence turns (a pause outgrew one
   collector increment, or mutator utilization sagged), growing back
   slowly once pauses are provably negligible again.  Shrink-fast /
   grow-slow keeps one bad remark from ever becoming a trend, which is
   what the p99 acceptance bar measures. *)
let auto_min_goal = 1.2
let auto_max_goal = 3.0
let auto_start_goal = auto_max_goal
let auto_grow = 1.15
let auto_shrink = 0.7
let auto_min_mmu = 0.5

(* Degradation exits at 90% of the soft limit, never at the limit
   itself: the hysteresis band that keeps the state machine from
   flapping. *)
let soft_exit_pct = 90

type state = Normal | Degraded | Hard_stop

let state_name = function
  | Normal -> "normal"
  | Degraded -> "degraded"
  | Hard_stop -> "hard-stop"

exception Hard_limit of string

type t = {
  cfg : config;
  collector : string;
  increment_budget : int;
      (** the collector's per-increment mark budget (work units) — the
          yardstick auto mode measures pauses against *)
  mutable goal : float;  (** current goal multiplier (goal/auto modes) *)
  mutable trigger_units : int;  (** live-heap trigger for the next cycle *)
  mutable base_alloc : int;
      (** allocation count at the last cycle end (fixed mode) *)
  mutable state : state;
  mutable degraded_this_cycle : bool;
  mutable cycles : int;
  mutable degraded_entries : int;
  mutable degraded_cycles : int;
  mutable assists : int;
  mutable max_live_units : int;
  mutable last_live_units : int;
      (** live units the last finished cycle left behind *)
  mutable hard_stop : string option;
  (* the feedback history: one (at_step, pause_work) per finished cycle,
     newest first *)
  mutable pause_history : (int * int) list;
}

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
  p_hard_stop : string option;
}

(* ---- construction ------------------------------------------------------ *)

let create ?(collector = "?") ?(increment_budget = 64) (cfg : config) : t =
  (match cfg.soft_limit, cfg.hard_limit with
  | Some s, Some h when s >= h ->
      invalid_arg
        (Printf.sprintf
           "Pacer.create: soft limit %d must be below the hard limit %d" s h)
  | _ -> ());
  let goal =
    match cfg.mode with
    | Fixed _ -> 0.0
    | Goal g ->
        if g <= 1.0 then
          invalid_arg
            (Printf.sprintf
               "Pacer.create: heap goal %.2f must exceed 1.0 (the heap must \
                be allowed to grow between cycles)"
               g)
        else g
    | Auto -> auto_start_goal
  in
  let t =
    {
      cfg;
      collector;
      increment_budget = max 1 increment_budget;
      goal;
      trigger_units = max 1 cfg.goal_floor;
      base_alloc = 0;
      state = Normal;
      degraded_this_cycle = false;
      cycles = 0;
      degraded_entries = 0;
      degraded_cycles = 0;
      assists = 0;
      max_live_units = 0;
      last_live_units = 0;
      hard_stop = None;
      pause_history = [];
    }
  in
  t

let state (t : t) : state = t.state
let degraded (t : t) : bool = t.state = Degraded
let trigger_units (t : t) : int = t.trigger_units
let goal (t : t) : float = t.goal

(* ---- the state machine ------------------------------------------------- *)

let enter_degraded (t : t) ~(live : int) ~(soft : int) : unit =
  if t.state = Normal then begin
    t.state <- Degraded;
    t.degraded_this_cycle <- true;
    t.degraded_entries <- t.degraded_entries + 1;
    Flight.record
      (Flight.Degraded { collector = t.collector; live_units = live; soft_limit = soft })
  end

(** Degradation entry: live heap at or over the soft limit.  Called from
    both the allocation path and safepoints so a spike between
    safepoints still degrades promptly. *)
let check_soft (t : t) ~(live : int) : unit =
  match t.cfg.soft_limit with
  | Some soft when t.state = Normal && live >= soft ->
      enter_degraded t ~live ~soft
  | _ -> ()

(** Degradation exit — only here, at a cycle boundary, and only below
    the hysteresis threshold. *)
let maybe_recover (t : t) ~(live : int) : unit =
  match t.cfg.soft_limit with
  | Some soft
    when t.state = Degraded && live * 100 <= soft * soft_exit_pct ->
      t.state <- Normal;
      Flight.record
        (Flight.Recovered
           { collector = t.collector; live_units = live; soft_limit = soft })
  | _ -> ()

(* ---- allocation-path hooks --------------------------------------------- *)

let note_hard_stop (t : t) (msg : string) : unit =
  if t.hard_stop = None then begin
    t.hard_stop <- Some msg;
    t.state <- Hard_stop;
    Flight.record
      (Flight.Hard_stop
         { collector = t.collector; diagnostic = msg; live_units = t.max_live_units })
  end

(** Admission control for one allocation of [units] heap units: refuses
    (raises {!Hard_limit}) before the allocation happens, so the live
    heap {e never} exceeds the hard limit. *)
let before_alloc (t : t) (heap : Heap.t) ~(units : int) : unit =
  let live = heap.Heap.live_units in
  (match t.cfg.hard_limit with
  | Some hard when live + units > hard ->
      let msg =
        Printf.sprintf
          "hard heap limit exceeded: %d live units + %d requested > limit %d \
           (soft limit %s, state %s, %d cycles, %d assists)"
          live units hard
          (match t.cfg.soft_limit with
          | Some s -> string_of_int s
          | None -> "unset")
          (state_name t.state) t.cycles t.assists
      in
      note_hard_stop t msg;
      raise (Hard_limit msg)
  | _ -> ());
  check_soft t ~live:(live + units);
  t.max_live_units <- max t.max_live_units (live + units)

(** An allocating thread performed one bounded increment of marking on
    the collector's behalf (degraded mode only; the interpreter runs the
    increment, the pacer keeps the book). *)
let note_assist (t : t) : unit =
  t.assists <- t.assists + 1;
  Flight.record Flight.Assist

(* ---- cycle pacing ------------------------------------------------------ *)

let should_start (t : t) (heap : Heap.t) : bool =
  match t.state with
  | Hard_stop -> false
  | Degraded -> true  (* free memory as soon as the collector is idle *)
  | Normal -> (
      match t.cfg.mode with
      | Fixed n -> heap.Heap.total_allocated - t.base_alloc >= n
      | Goal _ | Auto -> heap.Heap.live_units >= t.trigger_units)

let note_cycle_start (t : t) (heap : Heap.t) : unit =
  Flight.record
    (Flight.Trigger
       {
         collector = t.collector; mode = mode_name t.cfg.mode;
         live_units = heap.Heap.live_units; trigger_units = t.trigger_units;
         degraded = t.state = Degraded;
       })

(** Auto mode's feedback: retune the goal from the pause percentiles and
    the MMU of the timeline so far.  Grow only when the evidence is that
    pauses are negligible (the last pause fit inside one collector
    increment {e and} mutator utilization stayed high); shrink the
    moment a pause got expensive. *)
let retune (t : t) : unit =
  match t.pause_history with
  | [] -> ()
  | (last_at, last_work) :: _ ->
      let works = List.map snd t.pause_history in
      let p99 = Mmu.percentile works 99.0 in
      let timeline =
        {
          Mmu.steps = last_at;
          pauses =
            List.rev_map
              (fun (at, work) -> { Mmu.at; work })
              (List.filter (fun (_, w) -> w > 0) t.pause_history);
        }
      in
      let window = max 1 (Mmu.total_time timeline / 10) in
      let mmu_10 = Mmu.mmu timeline ~window in
      let old_goal = t.goal in
      if last_work <= t.increment_budget && mmu_10 >= auto_min_mmu then
        t.goal <- Float.min auto_max_goal (t.goal *. auto_grow)
      else t.goal <- Float.max auto_min_goal (t.goal *. auto_shrink);
      if t.goal <> old_goal then begin
        Flight.record
          (Flight.Retune
             {
               collector = t.collector; goal = t.goal; p99; mmu_10;
               last_pause = last_work;
             })
      end

(** Cycle end: record the pause for the feedback loop, recompute the
    next trigger from the live size the mark left behind, and run the
    degradation-exit hysteresis. *)
let note_cycle_end (t : t) (heap : Heap.t) ~(at_step : int)
    ~(pause_work : int) : unit =
  t.cycles <- t.cycles + 1;
  t.base_alloc <- heap.Heap.total_allocated;
  t.pause_history <- (at_step, pause_work) :: t.pause_history;
  if t.degraded_this_cycle then t.degraded_cycles <- t.degraded_cycles + 1;
  t.degraded_this_cycle <- t.state = Degraded;
  (match t.cfg.mode with
  | Fixed _ -> ()
  | Goal _ | Auto ->
      if t.cfg.mode = Auto then retune t;
      t.trigger_units <-
        max t.cfg.goal_floor
          (int_of_float (float_of_int heap.Heap.live_units *. t.goal)));
  t.last_live_units <- heap.Heap.live_units;
  maybe_recover t ~live:heap.Heap.live_units

(** Safepoint poll: update the degradation state machine from the
    current live size and tell the runner how many {e extra} collector
    increments to run right now (the shortened-mark-budget half of
    degraded mode; 0 while normal). *)
let at_safepoint (t : t) (heap : Heap.t) : int =
  t.max_live_units <- max t.max_live_units heap.Heap.live_units;
  check_soft t ~live:heap.Heap.live_units;
  if t.state = Degraded then 1 else 0

let stats (t : t) : stats =
  {
    p_state = t.state;
    p_goal = t.goal;
    p_trigger_units = t.trigger_units;
    p_cycles = t.cycles;
    p_degraded_entries = t.degraded_entries;
    p_degraded_cycles = t.degraded_cycles;
    p_assists = t.assists;
    p_max_live_units = t.max_live_units;
    p_last_live_units = t.last_live_units;
    p_hard_stop = t.hard_stop;
  }
