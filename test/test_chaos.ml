(* Tests for the chaos fault-injection layer and the guard/revocation
   subsystem it exercises: the oracle self-test (deliberate barrier
   skips must always be caught), revocation closing the late-spawn hole,
   graceful degradation on retrace-budget overflow, and benign faults
   (marker preemption, heap pressure) staying violation-free. *)

let compile w =
  Harness.Exp.compile ~null_or_same:true ~move_down:true ~swap:true w

let chaos_of faults =
  Jrt.Chaos.create { Jrt.Chaos.seed = 1; faults; quantum = None; gc_period = None }

let satb () = Jrt.Runner.make_satb ~pacing:(Jrt.Pacer.config_of_trigger 24)
  ~steps_per_increment:8 ()

let retrace () =
  Jrt.Runner.make_retrace ~pacing:(Jrt.Pacer.config_of_trigger 24)
    ~steps_per_increment:8 ()

let violations (r : Jrt.Runner.report) =
  match r.gc with Some g -> g.total_violations | None -> 0

(* --- oracle self-test --------------------------------------------------

   A deliberate, unguarded barrier skip severs the sole reference to a
   snapshot-reachable object while marking.  If the oracle ever lets one
   slide, the soundness suite's zero-violation results mean nothing, so
   this property must hold on every workload that gives the fault a
   window to fire. *)

let barrier_skip_caught (w : Workloads.Spec.t) seed =
  let chaos =
    Jrt.Chaos.create
      {
        Jrt.Chaos.seed;
        faults = [ Jrt.Chaos.Barrier_skip { at_instr = 200; victims = 2 } ];
        quantum = None;
        gc_period = None;
      }
  in
  let r =
    Harness.Exp.run ~gc:(satb ()) ~chaos ~fail_on_thread_error:false
      (compile w)
  in
  let skipped = (Jrt.Chaos.stats chaos).Jrt.Chaos.skipped_barriers in
  (skipped, violations r)

let test_oracle_selftest_all_workloads () =
  List.iter
    (fun (w : Workloads.Spec.t) ->
      let skipped, viols = barrier_skip_caught w 1 in
      Alcotest.(check bool)
        (w.name ^ ": fault fired") true (skipped > 0);
      Alcotest.(check bool)
        (w.name ^ ": oracle caught the skip") true (viols > 0))
    Workloads.Registry.table1

let oracle_selftest_prop =
  QCheck2.Test.make ~name:"oracle catches every barrier skip" ~count:30
    (QCheck2.Gen.pair
       (QCheck2.Gen.oneofl Workloads.Registry.table1)
       (QCheck2.Gen.int_range 1 1000))
    (fun (w, seed) ->
      let skipped, viols = barrier_skip_caught w seed in
      (* the plan is deterministic per (workload, seed); whenever a skip
         actually fires the snapshot invariant must break *)
      skipped = 0 || viols > 0)

(* --- late spawn: revocation closes the hole --------------------------- *)

let late_spawn = [ Jrt.Chaos.Late_spawn { at_instr = 1000; stores = 4 } ]

let run_late_spawn ~revoke ~gc w =
  let chaos = chaos_of late_spawn in
  let r =
    Harness.Exp.run ~gc ~guards:true ~revoke ~chaos
      ~fail_on_thread_error:false (compile w)
  in
  (r, (Jrt.Chaos.stats chaos).Jrt.Chaos.damage_stores)

let test_late_spawn_revoked () =
  List.iter
    (fun (w, gc) ->
      let r, damage = run_late_spawn ~revoke:true ~gc w in
      Alcotest.(check bool) "damage stores ran" true (damage > 0);
      Alcotest.(check int) "no violations" 0 (violations r);
      Alcotest.(check bool)
        "revocation happened" true
        (r.machine.Jrt.Interp.revocation_events > 0))
    [
      (Workloads.Db.t, satb ());
      (Workloads.Db.t, retrace ());
      (Workloads.Jbb.t, satb ());
      (Workloads.Jbb.t, retrace ());
    ]

let test_late_spawn_unrevoked_caught () =
  (* with revocation disabled the guarded swap elisions stay live after
     the second mutator appears; its damage stores go unlogged and the
     oracle must notice on at least one collector/workload pair *)
  let total =
    List.fold_left
      (fun acc (w, gc) ->
        let r, _ = run_late_spawn ~revoke:false ~gc w in
        acc + violations r)
      0
      [
        (Workloads.Jbb.t, satb ());
        (Workloads.Jbb.t, retrace ());
      ]
  in
  Alcotest.(check bool) "oracle caught the unrepaired spawn" true (total > 0)

(* --- retrace budget: graceful degradation ------------------------------ *)

let test_budget_overflow_degrades () =
  (* slow marking to one gray entry per increment and freeze it mid-scan
     so the cycle is still live during db's swap phase; a zero budget
     then trips the watchdog on the first unlogged store *)
  let chaos =
    chaos_of [ Jrt.Chaos.Preempt_marker { at_alloc = 24; skips = 700 } ]
  in
  let r =
    Harness.Exp.run
      ~gc:
        (Jrt.Runner.Gc
           {
             policy = Jrt.Retrace_gc.policy ~retrace_budget:0 ();
             steps_per_increment = 1;
             pacing = Jrt.Pacer.config_of_trigger 24;
           })
      ~guards:true ~chaos ~fail_on_thread_error:false
      (compile Workloads.Db.t)
  in
  Alcotest.(check int) "no violations" 0 (violations r);
  Alcotest.(check bool)
    "cycle degraded" true
    (r.machine.Jrt.Interp.degradations > 0);
  Alcotest.(check bool)
    "swap stores fell back to logging" true
    (r.machine.Jrt.Interp.degraded_swap_execs > 0);
  (* the over-budget entry is still enqueued and re-scanned: dropping it
     would be unsound *)
  let retraced =
    match r.gc with
    | Some g -> List.fold_left ( + ) 0 g.retraced
    | None -> 0
  in
  Alcotest.(check bool) "entry still re-scanned" true (retraced > 0)

(* --- benign faults stay violation-free --------------------------------- *)

let test_benign_faults_sound () =
  List.iter
    (fun (name, faults) ->
      List.iter
        (fun (w : Workloads.Spec.t) ->
          let chaos = chaos_of faults in
          let r =
            Harness.Exp.run ~gc:(satb ()) ~guards:true ~chaos
              ~fail_on_thread_error:false (compile w)
          in
          Alcotest.(check int) (name ^ "/" ^ w.name) 0 (violations r))
        [ Workloads.Db.t; Workloads.Jbb.t ])
    [
      ("preempt", [ Jrt.Chaos.Preempt_marker { at_alloc = 48; skips = 12 } ]);
      ("pressure", [ Jrt.Chaos.Heap_pressure { at_alloc = 64 } ]);
    ]

(* --- allocation faults vs the pacer ------------------------------------ *)

let alloc_faults =
  [
    ( "alloc-spike",
      [ Jrt.Chaos.Alloc_spike { at_instr = 800; count = 64 } ] );
    ( "mem-pressure",
      [
        Jrt.Chaos.Mem_pressure
          { at_alloc = 32; per_safepoint = 4; total = 200 };
      ] );
  ]

let test_alloc_faults_sound () =
  (* the new allocation faults are benign: ballast objects appear out of
     nowhere, but with no limits armed the runs stay violation-free and
     the fault demonstrably fired *)
  List.iter
    (fun (name, faults) ->
      List.iter
        (fun (w : Workloads.Spec.t) ->
          let chaos = chaos_of faults in
          let r =
            Harness.Exp.run ~gc:(satb ()) ~guards:true ~chaos
              ~fail_on_thread_error:false (compile w)
          in
          let s = Jrt.Chaos.stats chaos in
          Alcotest.(check bool)
            (name ^ "/" ^ w.name ^ ": fault fired") true
            (s.Jrt.Chaos.spike_allocs + s.Jrt.Chaos.ramp_allocs > 0);
          Alcotest.(check int) (name ^ "/" ^ w.name) 0 (violations r))
        [ Workloads.Db.t; Workloads.Jbb.t ])
    alloc_faults

let soft_gc ?hard_limit ~soft_limit () =
  let pacing =
    { Jrt.Pacer.default_config with soft_limit = Some soft_limit; hard_limit }
  in
  Jrt.Runner.make_satb ~pacing ~steps_per_increment:8 ()

let test_alloc_faults_degrade_not_die () =
  (* with a soft limit armed, an allocation fault pushes the heap into
     the degradation band: the run must degrade (and stay sound), never
     abort *)
  List.iter
    (fun (name, faults) ->
      let chaos = chaos_of faults in
      let r =
        Harness.Exp.run
          ~gc:(soft_gc ~soft_limit:90 ())
          ~guards:true ~chaos ~fail_on_thread_error:false
          (compile Workloads.Jbb.t)
      in
      let p =
        match r.pacer with
        | Some p -> p
        | None -> Alcotest.fail (name ^ ": no pacer stats")
      in
      Alcotest.(check int) (name ^ ": sound") 0 (violations r);
      Alcotest.(check bool)
        (name ^ ": degraded under pressure") true
        (p.Jrt.Pacer.p_degraded_cycles > 0);
      Alcotest.(check bool)
        (name ^ ": did not die") true
        (p.Jrt.Pacer.p_hard_stop = None && r.hard_stop = None))
    alloc_faults

let test_hard_limit_aborts_cleanly () =
  (* an unsurvivable spike against a hard limit must abort with the
     diagnostic — after finishing the in-flight cycle, so the oracle
     still checks every invariant — rather than corrupt state *)
  let chaos =
    chaos_of [ Jrt.Chaos.Alloc_spike { at_instr = 400; count = 400 } ]
  in
  let r =
    Harness.Exp.run
      ~gc:(soft_gc ~soft_limit:200 ~hard_limit:300 ())
      ~guards:true ~chaos ~fail_on_thread_error:false
      (compile Workloads.Db.t)
  in
  Alcotest.(check bool) "run reports the hard stop" true (r.hard_stop <> None);
  Alcotest.(check int) "aborted run is still sound" 0 (violations r);
  match r.pacer with
  | Some p ->
      Alcotest.(check bool)
        "live heap never exceeded the limit" true
        (p.Jrt.Pacer.p_max_live_units <= 300)
  | None -> Alcotest.fail "no pacer stats"

(* --- seed audit: every of_seed plan is sound, failures name the seed --- *)

let test_seed_plans_sound () =
  (* sweep a seed set through the derived fault plans (the CI trace
     smoke's seeds included); any failure message must carry the seed so
     the exact plan is reproducible from the log alone *)
  List.iter
    (fun seed ->
      let chaos = Jrt.Chaos.create (Jrt.Chaos.of_seed seed) in
      let r =
        Harness.Exp.run ~gc:(satb ()) ~guards:true ~chaos
          ~fail_on_thread_error:false (compile Workloads.Db.t)
      in
      Alcotest.(check int)
        (Printf.sprintf "chaos seed %d: violation-free" seed)
        0 (violations r);
      Alcotest.(check bool)
        (Printf.sprintf "chaos seed %d: no hard stop" seed)
        true (r.hard_stop = None))
    [ 42; 7; 101; 1; 2; 3; 17; 1000 ]

(* --- startup revocation ------------------------------------------------ *)

let test_startup_revocation_under_plain_satb () =
  (* swap verdicts assume the retrace collector; running the same
     compiled program under plain SATB with guards wired must patch the
     swap sites back at startup and stay sound *)
  let r =
    Harness.Exp.run ~gc:(satb ()) ~guards:true ~fail_on_thread_error:false
      (compile Workloads.Db.t)
  in
  Alcotest.(check int) "no violations" 0 (violations r);
  Alcotest.(check bool)
    "swap sites revoked at startup" true
    (r.machine.Jrt.Interp.revoked_sites > 0);
  Alcotest.(check int)
    "no tracing-state checks execute" 0 r.machine.Jrt.Interp.retrace_checks

let tests =
  [
    Alcotest.test_case "oracle self-test: all table1 workloads" `Quick
      test_oracle_selftest_all_workloads;
    QCheck_alcotest.to_alcotest oracle_selftest_prop;
    Alcotest.test_case "late spawn: revocation keeps runs sound" `Quick
      test_late_spawn_revoked;
    Alcotest.test_case "late spawn: --no-revoke is caught" `Quick
      test_late_spawn_unrevoked_caught;
    Alcotest.test_case "retrace budget overflow degrades gracefully" `Quick
      test_budget_overflow_degrades;
    Alcotest.test_case "benign faults stay violation-free" `Quick
      test_benign_faults_sound;
    Alcotest.test_case "allocation faults stay violation-free" `Quick
      test_alloc_faults_sound;
    Alcotest.test_case "allocation faults degrade, don't die" `Quick
      test_alloc_faults_degrade_not_die;
    Alcotest.test_case "hard limit aborts cleanly under a spike" `Quick
      test_hard_limit_aborts_cleanly;
    Alcotest.test_case "seed-derived plans are sound (seed in message)"
      `Quick test_seed_plans_sound;
    Alcotest.test_case "swap under plain satb revokes at startup" `Quick
      test_startup_revocation_under_plain_satb;
  ]
