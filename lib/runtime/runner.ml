(** Deterministic execution harness: interleaves mutator threads and
    collector increments, triggers and finishes marking cycles, and
    produces a run report.

    Scheduling is a round-robin over live threads with a fixed (optionally
    seed-jittered) quantum; collector increments run every
    [gc_period] mutator instructions.  Everything is deterministic for a
    given seed, which the soundness property tests exploit to explore many
    adversarial mutator/collector interleavings.

    Collector work (increments, cycle starts, remark) only runs at
    {e safepoints}: it is deferred while the interpreter is inside a
    swap-elided store pair's safepoint-free window
    ({!Interp.t.in_no_safepoint}) — the scheduling half of the retrace
    protocol's soundness argument (see {!Retrace_gc}). *)

type gc_choice =
  | No_gc
  | Satb of { steps_per_increment : int; pacing : Pacer.config }
  | Incr of { steps_per_increment : int; pacing : Pacer.config }
  | Retrace of { steps_per_increment : int; pacing : Pacer.config }
  | Hybrid of { steps_per_increment : int; pacing : Pacer.config }

(* Without [?pacing], {!Pacer.default_config}'s heap-growth goal paces
   the run — calibrated so every bundled workload cycles with no flags
   at all. *)
let make_satb ?(steps_per_increment = 64) ?(pacing = Pacer.default_config) () =
  Satb { steps_per_increment; pacing }

let make_incr ?(steps_per_increment = 64) ?(pacing = Pacer.default_config) () =
  Incr { steps_per_increment; pacing }

let make_retrace ?(steps_per_increment = 64) ?(pacing = Pacer.default_config)
    () =
  Retrace { steps_per_increment; pacing }

let make_hybrid ?(steps_per_increment = 64) ?(pacing = Pacer.default_config)
    () =
  Hybrid { steps_per_increment; pacing }

(** The policy each choice's collector runs: the single place a
    collector's name and capabilities are declared. *)
let policy_of_choice ?retrace_budget : gc_choice -> Marker.policy option =
  function
  | No_gc -> None
  | Satb _ -> Some (Satb_gc.policy ())
  | Incr _ -> Some Incr_gc.policy
  | Retrace _ -> Some (Retrace_gc.policy ?retrace_budget ())
  | Hybrid _ -> Some Hybrid_gc.policy

let gc_name gc =
  match policy_of_choice gc with
  | Some p -> p.Marker.name
  | None -> Gc_hooks.none.Gc_hooks.name

let caps_of_choice gc =
  match policy_of_choice gc with
  | Some p -> Marker.caps p
  | None -> Gc_hooks.none.Gc_hooks.caps

type gc_summary = {
  cycles : int;
  total_violations : int;
  final_pause_works : int list;  (** per cycle, oldest first *)
  pause_steps : int list;
      (** mutator instruction count at which each final pause began,
          parallel to [final_pause_works] — the profiler's MMU timeline *)
  mark_increments : int list;
  logged_or_dirtied : int list;
      (** barrier log entries per cycle: SATB pre-values, dirty cards, or
          hybrid shades *)
  retraced : int list;
      (** forced whole-object re-scans per cycle: retrace-list entries
          under [Retrace], repair-set objects under [Hybrid], else 0 *)
  reports : Marker.cycle_report list;  (** the marker's, oldest first *)
}

type report = {
  machine : Interp.t;
  steps : int;
  dyn : Interp.dyn_stats;
  cost_units : int;
  barrier_units : int;
  gc : gc_summary option;
  pacer : Pacer.stats option;
  hard_stop : string option;
      (** the hard heap limit fired: the run was aborted cleanly with
          this diagnostic (the in-flight cycle was still finished and
          checked) *)
  out_of_steps : bool;
      (** the program used its whole [max_steps] budget and was stopped
          cleanly; not a pacer event *)
  thread_errors : (int * string) list;
  loop_s : float;
      (** wall time of the scheduling loop alone — mutator slices plus
          safepoint/GC work, excluding machine construction and
          [Exec.create] (binding the shared code, and compiling it on
          the content's first threaded run).  The steady-state number
          benchmarks compare across engines. *)
  gc_s : float;
      (** portion of [loop_s] spent inside safepoint work — collector
          increments, pauses, pacing, revocation — which is
          engine-invariant by construction (the engines share every GC
          hook).  [loop_s -. gc_s] is mutator time. *)
}

let summary_of (t : Marker.t) ~pause_steps =
  let rs = List.rev t.reports in
  let per f = List.map f rs in
  {
    cycles = List.length rs;
    total_violations =
      List.fold_left (fun a (r : Marker.cycle_report) -> a + r.violations) 0 rs;
    final_pause_works = per (fun r -> r.final_pause_work);
    pause_steps;
    mark_increments = per (fun r -> r.counts.increments);
    logged_or_dirtied = per (fun r -> r.counts.logged);
    retraced = per (fun r -> r.counts.rescans);
    reports = rs;
  }

(* The machine, marker, pacer and chaos fields are the only home of a
   run's counts.  The run adds its totals to the registry once, at
   [run.finish] — hard-limit aborts included — and sets the pacer gauges
   to their final values. *)
let counters prefix fields =
  List.map (fun (name, get) -> (Telemetry.counter (prefix ^ name), get)) fields

let machine_counters =
  counters "jrt."
    [
      ("barriers_executed", fun (m : Interp.t) -> m.barriers_executed);
      ("elided_barrier_execs", fun m -> m.elided_barrier_execs);
      ("retrace_checks", fun m -> m.retrace_checks);
      ("revocation_events", fun m -> m.revocation_events);
      ("revoked_sites", fun m -> m.revoked_sites);
      ("degradations", fun m -> m.degradations);
      ("degraded_swap_execs", fun m -> m.degraded_swap_execs);
      ("assist_execs", fun m -> m.assist_execs);
    ]

(* gc.* is shared by every policy; retrace.* belongs to the retrace list
   (under the hybrid policy [rescans] counts repair-set re-grays) *)
let cycle_counters =
  counters "gc."
    [
      ("cycles", fun (_ : Marker.cycle_report) -> 1);
      ("violations", fun r -> r.violations);
      ("restarts", fun r -> r.counts.restarts);
    ]

let retrace_counters =
  counters "retrace."
    [
      ("rescans", fun (r : Marker.cycle_report) -> r.counts.rescans);
      ("enqueues", fun r -> r.counts.enqueued);
      ("repair_enqueues", fun r -> r.counts.repair_enqueues);
      ("budget_overflows", fun r -> r.counts.budget_overflows);
    ]

let pacer_counters =
  counters "pacer."
    [
      ("assists", fun (s : Pacer.stats) -> s.p_assists);
      ("degraded_entries", fun s -> s.p_degraded_entries);
      ("degraded_cycles", fun s -> s.p_degraded_cycles);
      ("hard_stops", fun s -> if s.p_hard_stop = None then 0 else 1);
    ]

let chaos_counters =
  counters "chaos."
    [
      ("spawns", fun (s : Chaos.stats) -> s.spawns);
      ("damage_stores", fun s -> s.damage_stores);
      ("skipped_barriers", fun s -> s.skipped_barriers);
      ("preempted_increments", fun s -> s.preempted_increments);
      ("pressure_remarks", fun s -> s.pressure_remarks);
      ("class_loads", fun s -> s.class_loads);
      ("spike_allocs", fun s -> s.spike_allocs);
      ("ramp_allocs", fun s -> s.ramp_allocs);
    ]

let g_trigger = Telemetry.gauge "pacer.trigger_units"
let g_goal = Telemetry.gauge "pacer.goal"
let g_live = Telemetry.gauge "pacer.live_units"

let add counters x =
  List.iter (fun (c, get) -> Telemetry.incr c ~by:(get x)) counters

let add_run_totals (m : Interp.t) (live : Marker.t option)
    (pacer : Pacer.t option) (chaos : Chaos.t option) =
  add machine_counters m;
  Option.iter
    (fun (t : Marker.t) ->
      let retrace = (Marker.caps t.policy).Gc_hooks.retrace_protocol in
      List.iter
        (fun r ->
          add cycle_counters r;
          if retrace then add retrace_counters r)
        t.reports)
    live;
  Option.iter
    (fun p ->
      let s = Pacer.stats p in
      add pacer_counters s;
      Telemetry.set_gauge g_trigger (float_of_int s.p_trigger_units);
      Telemetry.set_gauge g_goal s.p_goal;
      (* the live size at the last cycle end; a run without one leaves
         the gauge alone *)
      if s.p_cycles > 0 then
        Telemetry.set_gauge g_live (float_of_int s.p_last_live_units))
    pacer;
  Option.iter (fun c -> add chaos_counters (Chaos.stats c)) chaos

(** Simple deterministic PRNG for quantum jitter. *)
let lcg seed =
  let state = ref (if seed = 0 then 1 else seed) in
  fun bound ->
    state := (!state * 1103515245) + 12345;
    let v = (!state lsr 16) land 0x3FFF in
    1 + (v mod bound)

let run ?(cfg = Interp.default_config) ?(gc = No_gc) ?(engine = `Interp)
    ?(quantum = 50) ?(seed = 0) ?(gc_period = 32) ?chaos ?retrace_budget
    ?observer (prog : Jir.Program.t) ~(entry : Jir.Types.method_ref) : report =
  let m = Interp.create ~cfg prog in
  (* heap observer: arm verdict logging before the first instruction so
     the first cycle's elided stores are attributed too *)
  (match observer with
  | Some _ -> m.Interp.track_heap <- true
  | None -> ());
  let _main = Interp.spawn_thread m entry [] in
  (* the threaded engine wraps the same machine: shared heap, statics,
     counters and hooks, so everything below it is engine-agnostic *)
  let exec =
    match engine with `Interp -> None | `Threaded -> Some (Exec.create m)
  in
  let gc_name = gc_name gc in
  Telemetry.emit "run.start"
    ([
       ("entry", Telemetry.Str (entry.Jir.Types.mclass ^ "." ^ entry.Jir.Types.mname));
       ("gc", Telemetry.Str gc_name);
       ("seed", Telemetry.Int seed);
       ("chaos", Telemetry.Bool (chaos <> None));
     ]
    (* only stamped when non-default, so interpreter traces stay
       bit-identical to earlier releases *)
    @ match engine with
      | `Threaded -> [ ("engine", Telemetry.Str "threaded") ]
      | `Interp -> []);
  (* flight recorder: fresh ring per run, clocked by the mutator's
     instruction counter, with a per-site snapshot source for dumps *)
  Flight.begin_run ();
  Flight.set_step_source
    (match exec with
    | None -> fun () -> m.Interp.instr_count
    | Some e -> fun () -> m.Interp.instr_count + Exec.inflight e);
  Flight.set_meta
    [
      ("collector", gc_name);
      ( "engine",
        match engine with `Interp -> "interp" | `Threaded -> "threaded" );
      ("entry", entry.Jir.Types.mclass ^ "." ^ entry.Jir.Types.mname);
      ("seed", string_of_int seed);
      ("chaos", if chaos <> None then "yes" else "no");
    ];
  Flight.set_sites_source (fun () ->
      Hashtbl.fold
        (fun site (st : Interp.site_stats) acc ->
          let state =
            match m.Interp.cfg.Interp.barrier_flavor with
            | `Hybrid ->
                if st.Interp.st_del_elided && st.Interp.st_ins_elided then
                  "both-elided"
                else if st.Interp.st_del_elided then "del-elided"
                else if st.Interp.st_ins_elided then "ins-elided"
                else if st.Interp.revocations > 0 then "revoked"
                else "kept"
            | `Satb ->
                if st.Interp.st_del_elided then "elided"
                else if st.Interp.revocations > 0 then "revoked"
                else "kept"
          in
          {
            Flight.fs_site = Jir.Types.string_of_site site;
            fs_kind =
              (match st.Interp.st_kind with
              | Jir.Types.Field_store -> "putfield"
              | Jir.Types.Array_store -> "aastore"
              | Jir.Types.Static_store -> "putstatic");
            fs_state = state;
            fs_execs = st.Interp.execs;
            fs_paid = st.Interp.paid_execs;
            fs_elided_execs = st.Interp.elided_execs;
            fs_revocations = st.Interp.revocations;
            fs_guards =
              List.map Jir.Types.string_of_assumption (Interp.guards m st);
          }
          :: acc)
        m.Interp.stats []);
  (* with a heap observer armed, dumps flush the current heap census so
     a hard-limit abort mid-cycle still leaves the heap state on disk *)
  (match observer with
  | Some _ ->
      Flight.set_census_source (fun () ->
          Some
            ( m.Interp.heap.Heap.gc_cycle,
              m.Interp.heap.Heap.live_count,
              m.Interp.heap.Heap.live_units ))
  | None -> ());
  (* mutator step at which each final (remark) pause began, oldest first
     once reversed — the profiler's MMU/pause timeline *)
  let pause_steps = ref [] in
  (* an adversarial chaos plan may override the pacing *)
  let quantum, gc_period =
    match chaos with
    | None -> quantum, gc_period
    | Some c ->
        let p = Chaos.plan c in
        ( Option.value p.Chaos.quantum ~default:quantum,
          Option.value p.Chaos.gc_period ~default:gc_period )
  in
  let rand = lcg seed in
  (* collector wiring: the marker runs the choice's policy; the pacer
     shares its increment budget *)
  let live, pacer =
    match gc, policy_of_choice ?retrace_budget gc with
    | ( ( Satb { steps_per_increment; pacing }
        | Incr { steps_per_increment; pacing }
        | Retrace { steps_per_increment; pacing }
        | Hybrid { steps_per_increment; pacing } ),
        Some policy ) ->
        let roots =
          {
            Marker.all = (fun () -> Interp.roots m);
            statics = (fun () -> Interp.static_roots m);
            stacks = (fun () -> Interp.thread_roots m);
          }
        in
        let t =
          Marker.create ~steps_per_increment policy m.Interp.heap ~roots
        in
        Interp.set_collector m (Marker.hooks t);
        let p =
          Pacer.create ~collector:gc_name
            ~increment_budget:steps_per_increment pacing
        in
        Interp.set_pacer m p;
        (Some t, Some p)
    | _ -> (None, None)
  in
  (* Capabilities are queried exactly once, here at run start, and
     asserted against the declared capability record for the chosen
     collector: a mismatch means a collector was wired whose abilities
     differ from what flag-level compatibility checks assumed, which
     must be a loud error, never a silent fallback. *)
  let caps = m.Interp.gc.Gc_hooks.caps in
  if caps <> caps_of_choice gc then
    invalid_arg
      (Printf.sprintf
         "Runner.run: collector %s reports capabilities \
          {retrace=%b; descending=%b; insertion=%b} but the %s choice \
          declares {retrace=%b; descending=%b; insertion=%b}"
         m.Interp.gc.Gc_hooks.name caps.Gc_hooks.retrace_protocol
         caps.Gc_hooks.descending_scan caps.Gc_hooks.insertion_half gc_name
         (caps_of_choice gc).Gc_hooks.retrace_protocol
         (caps_of_choice gc).Gc_hooks.descending_scan
         (caps_of_choice gc).Gc_hooks.insertion_half);
  (* Startup capability guards: the installed collector may lack
     capabilities some verdicts assumed (e.g. swap verdicts under a
     collector without the retrace protocol, move-down under an
     ascending scan).  Revoke before the first mutator instruction —
     inert unless guards were wired. *)
  if not caps.Gc_hooks.retrace_protocol then
    Interp.request_revoke m Jir.Types.Retrace_collector;
  if not caps.Gc_hooks.descending_scan then
    Interp.request_revoke m Jir.Types.Descending_scan;
  Interp.apply_revocations m;
  let maybe_start_cycle t =
    match pacer with
    | Some p
      when (not (Marker.is_marking t)) && Pacer.should_start p m.Interp.heap
      ->
        Pacer.note_cycle_start p m.Interp.heap;
        Marker.start_cycle t;
        Interp.reset_cycle_state m
    | Some _ | None -> ()
  in
  (* run the final (remark) pause, stamping when it happened on the
     mutator's instruction timeline — the profiler's MMU input *)
  let record_pause t =
    let at_step = m.Interp.instr_count in
    (* insertion-capable collectors re-scan the cycle's repair set at
       remark: destinations of insertion-elided stores may hold edges to
       objects that were provably fresh at analysis time but white at
       run time (allocated before this cycle started) *)
    if caps.Gc_hooks.insertion_half && Marker.is_marking t then begin
      m.Interp.gc.Gc_hooks.on_revoke ~objs:m.Interp.guarded_writes;
      m.Interp.guarded_writes <- []
    end;
    let work = (Marker.finish_cycle t).final_pause_work in
    Flight.record (Flight.Pause { collector = gc_name; at_step; work });
    pause_steps := at_step :: !pause_steps;
    (* cycle bookkeeping: recompute the heap-growth trigger from the
       live size the mark left behind, feed auto mode, and run the
       degradation-exit hysteresis *)
    Option.iter
      (fun p ->
        Pacer.note_cycle_end p m.Interp.heap ~at_step ~pause_work:work)
      pacer;
    (* the observatory reads survivors' mark origins and the cycle's
       elided-store log, so it must run after the sweep and before
       [reset_cycle_state] clears the log (in [finish_cycle] below and
       on the next cycle start) *)
    match observer with Some f -> f m | None -> ()
  in
  let finish_cycle t =
    record_pause t;
    Interp.reset_cycle_state m
  in
  (* keep the collector's pressure response in lockstep with the pacer's
     state machine: boost budgets (and force allocate-black where it
     matters) on entry, restore on exit *)
  let pressure_synced = ref false in
  let sync_pressure () =
    let degraded =
      match pacer with Some p -> Pacer.degraded p | None -> false
    in
    if degraded <> !pressure_synced then begin
      pressure_synced := degraded;
      m.Interp.gc.Gc_hooks.on_pressure ~degraded
    end
  in
  (* Run up to [fuel] instructions of [th] on the selected engine,
     returning how many executed.  The interpreter path is the old
     step-at-a-time loop verbatim; the threaded engine dispatches the
     whole slice through compiled code. *)
  let step_slice th ~fuel =
    match exec with
    | Some e -> Exec.slice e th ~fuel
    | None ->
        let n = ref 0 in
        while !n < fuel && not th.Interp.finished do
          ignore (Interp.step m th);
          incr n
        done;
        !n
  in
  (* main scheduling loop *)
  let since_gc = ref 0 in
  let continue_ = ref true in
  let hard_stop = ref None in
  let out_of_steps = ref false in
  let loop_t0 = Telemetry.now_s () in
  let gc_s = ref 0.0 in
  (try
     while !continue_ do
       let runnable =
         List.filter (fun th -> not th.Interp.finished) m.Interp.threads
       in
       if runnable = [] then continue_ := false
       else
         List.iter
           (fun th ->
             let q = if seed = 0 then quantum else rand quantum in
             let k = ref 0 in
             while !k < q && not th.Interp.finished do
               (* run straight to the next safepoint boundary in one
                  slice — the cadence is identical to stepping one
                  instruction at a time because a safepoint can only
                  fire when [since_gc] reaches [gc_period].  While a
                  swap-elided pair's window holds the safepoint open the
                  bound degenerates to single-stepping, exactly like the
                  per-instruction loop it replaces. *)
               let fuel = max 1 (min (q - !k) (gc_period - !since_gc)) in
               let n = step_slice th ~fuel in
               k := !k + n;
               since_gc := !since_gc + n;
               (* safepoint: collector work is deferred while a swap-elided
                  store pair's window is open *)
               if !since_gc >= gc_period && not m.Interp.in_no_safepoint
               then begin
                 let sp_t0 = Telemetry.now_s () in
                 since_gc := 0;
                 (* chaos faults fire first, so a late-spawn announcement's
                    revocation is applied below, before the fault's damage
                    stores (which run at later safepoints) *)
                 let action =
                   match chaos with
                   | Some c -> Chaos.at_safepoint c m
                   | None -> Chaos.no_action
                 in
                 (* guard failures noticed since the last safepoint patch
                    their dependent sites atomically here *)
                 Interp.apply_revocations m;
                 (* retrace-budget watchdog: a degraded cycle disables swap
                    elision for its remainder *)
                 (match live with
                 | Some t when t.Marker.degraded -> Interp.set_swap_degraded m
                 | Some _ | None -> ());
                 (* poll the pacer's state machine; while degraded it asks
                    for extra increments on top of the boosted budgets *)
                 let extra =
                   match pacer with
                   | Some p -> Pacer.at_safepoint p m.Interp.heap
                   | None -> 0
                 in
                 sync_pressure ();
                 (* anomaly detectors sweep the ring's new events *)
                 Flight.poll ();
                 if not action.Chaos.defer_increment then begin
                   m.Interp.gc.Gc_hooks.step ();
                   for _ = 1 to extra do
                     m.Interp.gc.Gc_hooks.step ()
                   done
                 end;
                 (match live with
                 | None -> ()
                 | Some t ->
                     if action.Chaos.force_remark && Marker.is_marking t then
                       (* chaos heap pressure: emergency remark now *)
                       finish_cycle t
                     else begin
                       maybe_start_cycle t;
                       (* finish once the concurrent phase has gone
                          quiescent *)
                       if Marker.quiescent t then finish_cycle t
                     end);
                 gc_s := !gc_s +. (Telemetry.now_s () -. sp_t0)
               end
             done)
           runnable
     done
   with
   | Pacer.Hard_limit msg ->
       (* degrade-don't-die ran out of road: abort cleanly.  The refusal
          happened before the allocation, so the live heap never
          exceeded the limit; fall through to finish the in-flight cycle
          below so every invariant is still checked. *)
       hard_stop := Some msg;
       ignore (Flight.capture ~reason:"hard-limit")
   | Interp.Out_of_steps _ ->
       (* the program's own outcome, stopped the same clean way *)
       out_of_steps := true);
  (* finish any in-flight cycle so its invariants still get checked *)
  (match live with
  | Some t when Marker.is_marking t ->
      let sp_t0 = Telemetry.now_s () in
      record_pause t;
      gc_s := !gc_s +. (Telemetry.now_s () -. sp_t0)
  | Some _ | None -> ());
  let loop_s = Telemetry.now_s () -. loop_t0 in
  add_run_totals m live pacer chaos;
  Telemetry.emit "run.finish"
    [
      ("hard_stop", Telemetry.Bool (!hard_stop <> None));
      ("steps", Telemetry.Int m.Interp.instr_count);
      ("cost_units", Telemetry.Int m.Interp.cost_units);
      ("barriers_executed", Telemetry.Int m.Interp.barriers_executed);
      ("elided_barrier_execs", Telemetry.Int m.Interp.elided_barrier_execs);
      ("revocation_events", Telemetry.Int m.Interp.revocation_events);
      ("revoked_sites", Telemetry.Int m.Interp.revoked_sites);
    ];
  let gc_summary =
    Option.map (summary_of ~pause_steps:(List.rev !pause_steps)) live
  in
  (match gc_summary with
  | Some s when s.total_violations > 0 ->
      ignore (Flight.capture ~reason:"oracle-violation")
  | Some _ | None -> ());
  {
    machine = m;
    steps = m.Interp.instr_count;
    dyn = Interp.dyn_stats m;
    cost_units = m.Interp.cost_units;
    barrier_units = m.Interp.barrier_units;
    gc = gc_summary;
    pacer = Option.map Pacer.stats pacer;
    hard_stop = !hard_stop;
    out_of_steps = !out_of_steps;
    thread_errors =
      List.filter_map
        (fun th ->
          match th.Interp.error with
          | Some e -> Some (th.Interp.tid, e)
          | None -> None)
        m.Interp.threads;
    loop_s;
    gc_s = !gc_s;
  }
