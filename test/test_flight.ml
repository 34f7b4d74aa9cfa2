(* Unit tests for the flight recorder: ring mechanics, the event schema,
   the anomaly detectors, dump round-trips, timeline reconstruction
   across all four collectors, render determinism and the capture
   protocol.

   The recorder is process-global; every test that drives it by hand
   starts from [Flight.set_capacity] (which implies [begin_run]) and
   installs its own step source, and ends by restoring the default
   capacity so the runner-driven tests below see a fresh 4096-slot
   ring. *)

let step = ref 0

let fresh ?(cap = 64) () =
  Flight.set_capacity cap;
  step := 0;
  Flight.set_step_source (fun () -> !step)

let restore () = Flight.set_capacity 4096

let at s ev =
  step := s;
  Flight.record ev

let pause work = Flight.Pause { collector = "test"; at_step = 0; work }

let revoke site =
  Flight.Revoke_site
    {
      site;
      guards = [ "single-mutator" ];
      guard = "single-mutator";
      half = Flight.Full;
      materialized = false;
      justification = None;
    }

let soft_limit live =
  Flight.Degraded { collector = "test"; live_units = live; soft_limit = 80 }

let work_of (e : Flight.entry) =
  match e.ev with Flight.Pause { work; _ } -> work | _ -> -1

(* --- ring mechanics ------------------------------------------------------ *)

let test_ring_wrap () =
  fresh ~cap:16 ();
  for i = 1 to 40 do
    at i (pause i)
  done;
  Alcotest.(check int) "recorded counts every event" 40 (Flight.recorded ());
  let evs = Flight.events () in
  Alcotest.(check int) "ring keeps the last capacity events" 16
    (List.length evs);
  Alcotest.(check int) "oldest survivor is recorded-capacity+1" 25
    (work_of (List.hd evs));
  Alcotest.(check int) "newest survivor is the last record" 40
    (work_of (List.hd (List.rev evs)));
  restore ()

let test_disabled_records_nothing () =
  fresh ();
  Flight.set_enabled false;
  at 1 (pause 1);
  Flight.set_enabled true;
  Alcotest.(check int) "disabled recorder drops the event" 0
    (Flight.recorded ());
  at 2 (pause 2);
  Alcotest.(check int) "re-enabled recorder records" 1 (Flight.recorded ());
  restore ()

(* --- the one schema ------------------------------------------------------- *)

(* one value of every kind, with exactly representable floats *)
let every_kind : Flight.event list =
  let open Flight in
  [
    Cycle_start { collector = "satb"; cycle = 0; snapshot_size = Some 22 };
    Cycle_start { collector = "incremental-update"; cycle = 1; snapshot_size = None };
    Cycle_finish
      {
        collector = "satb";
        cycle = 0;
        marked = 25;
        final_pause_work = 3;
        swept = 4;
        violations = 0;
        log = Satb_log { logged = 2; restarts = 1 };
      };
    Cycle_finish
      {
        collector = "retrace";
        cycle = 1;
        marked = 1;
        final_pause_work = 0;
        swept = 0;
        violations = 1;
        log =
          Retrace_log
            {
              logged = 2;
              retraces = 3;
              budget_overflows = 4;
              degraded = true;
              repair_enqueues = 5;
            };
      };
    Cycle_finish
      {
        collector = "incremental-update";
        cycle = 2;
        marked = 1;
        final_pause_work = 0;
        swept = 0;
        violations = 0;
        log = Card_log { dirty_cards = 6; rescan_rounds = 2 };
      };
    Cycle_finish
      {
        collector = "hybrid";
        cycle = 3;
        marked = 1;
        final_pause_work = 0;
        swept = 0;
        violations = 0;
        log = Shade_log { del_shades = 1; ins_shades = 2; stack_scans = 3; rescans = 4 };
      };
    Gc_restart { collector = "satb"; cycle = 0; snapshot_size = Some 9 };
    Gc_degraded { collector = "retrace"; cycle = 0; enqueued = 1; budget = 0 };
    Pause { collector = "satb"; at_step = 320; work = 37 };
    Assist;
    Trigger
      {
        collector = "satb";
        mode = "goal";
        live_units = 66;
        trigger_units = 64;
        degraded = false;
      };
    Degraded { collector = "satb"; live_units = 100; soft_limit = 80 };
    Recovered { collector = "satb"; live_units = 40; soft_limit = 80 };
    Retune
      { collector = "satb"; goal = 1.5; p99 = 12; mmu_10 = 0.875; last_pause = 7 };
    Hard_stop { collector = "satb"; diagnostic = "hard heap limit"; live_units = 48 };
    Revoke_request { assumption = "closed-world" };
    Revoke_apply { assumptions = [ "closed-world"; "single-mutator" ]; repair_set = 3 };
    Revoke_site
      {
        site = "Main.main@11";
        guards = [ "closed-world"; "single-mutator" ];
        guard = "single-mutator";
        half = Del;
        materialized = true;
        justification = Some "pre-null-field";
      };
    Revoke_site
      {
        site = "Main.main@12";
        guards = [];
        guard = "?";
        half = Ins;
        materialized = false;
        justification = None;
      };
    Runtime_degraded { reason = "retrace-budget-overflow" };
    Chaos_fault { fault = "class-load"; at = At_instr 576; count = None };
    Chaos_fault { fault = "mem-pressure"; at = At_alloc 103; count = Some 4 };
    Census
      {
        collector = "satb";
        cycle = 0;
        heap_live = 10;
        heap_units = 40;
        fold = None;
        float = None;
      };
    Census
      {
        collector = "hybrid";
        cycle = 7;
        heap_live = 10;
        heap_units = 40;
        fold = Some { census_live = 10; census_units = 40; sites = 3 };
        float =
          Some
            {
              float_objs = 2;
              float_units = 8;
              by_origin = [ ("none", 0); ("trace", 8) ];
              by_verdict = [ ("full-elided", 1); ("both-elided", 0) ];
            };
      };
    Anomaly { detector = "revocation-storm"; count = 6 };
  ]

(* every kind survives render -> JSON text -> parse, and its step and
   kind lead the rendering *)
let test_schema_round_trip () =
  List.iteri
    (fun i ev ->
      let e = { Flight.step = 100 + i; ev } in
      let kind, fields = Flight.render e in
      Alcotest.(check string) "kind name" (Flight.kind_name ev) kind;
      Alcotest.(check bool) (kind ^ ": step leads the fields") true
        (match fields with ("step", Telemetry.Int s) :: _ -> s = e.step | _ -> false);
      let text = Telemetry.json_to_string (Flight.to_json e) in
      match Telemetry.json_of_string text with
      | Error err -> Alcotest.failf "%s: not JSON: %s" kind err
      | Ok j -> (
          match Flight.of_json j with
          | Ok e' -> Alcotest.(check bool) (kind ^ " round-trips") true (e = e')
          | Error err -> Alcotest.failf "%s does not parse back: %s" kind err))
    every_kind;
  (* every constructor is covered: the sample spans 18 kind names *)
  Alcotest.(check int) "one name per kind" 18
    (List.length (List.sort_uniq compare (List.map Flight.kind_name every_kind)))

(* --- anomaly detectors --------------------------------------------------- *)

let test_revocation_storm_detector () =
  fresh ();
  for i = 1 to 6 do
    at (i * 100) (revoke "storm-site")
  done;
  Flight.poll ();
  (match Flight.anomalies () with
  | [ ("revocation-storm", at_step) ] ->
      Alcotest.(check int) "fired at the sixth revocation" 600 at_step
  | l -> Alcotest.failf "expected one storm firing, got %d" (List.length l));
  (* the firing itself is on the record, and it fires only once *)
  let anomaly_events =
    List.filter
      (fun (e : Flight.entry) ->
        match e.ev with Flight.Anomaly _ -> true | _ -> false)
      (Flight.events ())
  in
  Alcotest.(check int) "one anomaly event recorded" 1
    (List.length anomaly_events);
  for i = 7 to 20 do
    at (i * 100) (revoke "storm-site")
  done;
  Flight.poll ();
  Alcotest.(check int) "fires at most once per run" 1
    (List.length (Flight.anomalies ()));
  restore ()

let test_storm_window_excludes_slow_revocation () =
  fresh ();
  (* six revocations, but spread over 6 x 2000 steps: never 6 within the
     5000-step window *)
  for i = 1 to 6 do
    at (i * 2000) (revoke "slow-site")
  done;
  Flight.poll ();
  Alcotest.(check int) "slow revocation is not a storm" 0
    (List.length (Flight.anomalies ()));
  restore ()

let test_oscillation_and_spiral_detectors () =
  fresh ();
  for i = 1 to 4 do
    at (i * 1000) (soft_limit 100);
    at ((i * 1000) + 500)
      (Flight.Recovered { collector = "test"; live_units = 70; soft_limit = 80 })
  done;
  Flight.poll ();
  Alcotest.(check bool) "four soft-limit entries fire the oscillation" true
    (List.mem_assoc "pacing-oscillation" (Flight.anomalies ()));
  fresh ();
  for i = 1 to 50 do
    at (4000 + i) Flight.Assist
  done;
  Flight.poll ();
  Alcotest.(check bool) "fifty assists in a window fire the spiral" true
    (List.mem_assoc "assist-spiral" (Flight.anomalies ()));
  restore ()

let test_cascade_detector () =
  fresh ();
  at 1000 (soft_limit 100);
  at 2000 (Flight.Runtime_degraded { reason = "retrace-budget-overflow" });
  Flight.poll ();
  Alcotest.(check int) "two degradation signals are not a cascade" 0
    (List.length (Flight.anomalies ()));
  at 3000 (revoke "cascade-site");
  Flight.poll ();
  Alcotest.(check bool) "soft + degraded + revoke within a window cascade"
    true
    (List.mem_assoc "degradation-cascade" (Flight.anomalies ()));
  restore ()

(* --- dumps and timelines ------------------------------------------------- *)

let test_dump_roundtrip () =
  fresh ();
  Flight.set_meta [ ("collector", "test"); ("engine", "interp") ];
  Flight.set_sites_source (fun () ->
      [
        {
          Flight.fs_site = "C.m@1";
          fs_kind = "putfield";
          fs_state = "elided";
          fs_execs = 10;
          fs_paid = 0;
          fs_elided_execs = 10;
          fs_revocations = 0;
          fs_guards = [ "single-mutator" ];
        };
      ]);
  at 100 (Flight.Cycle_start { collector = "test"; cycle = 0; snapshot_size = Some 5 });
  at 200
    (Flight.Cycle_finish
       {
         collector = "test";
         cycle = 0;
         marked = 5;
         final_pause_work = 3;
         swept = 0;
         violations = 0;
         log = Flight.Satb_log { logged = 0; restarts = 0 };
       });
  at 200 (pause 3);
  let j = Flight.dump_json ~reason:"unit" in
  (* the dump survives a serialize/deserialize cycle too *)
  let reparsed =
    match Telemetry.json_of_string (Telemetry.json_to_string_pretty j) with
    | Ok j -> j
    | Error e -> Alcotest.failf "dump does not re-read as JSON: %s" e
  in
  match Flight.parse_dump reparsed with
  | Error e -> Alcotest.failf "dump does not parse back: %s" e
  | Ok d ->
      Alcotest.(check string) "reason survives" "unit" d.Flight.d_reason;
      Alcotest.(check bool) "events survive" true
        (d.Flight.d_events = Flight.events ());
      Alcotest.(check int) "sites survive" 1 (List.length d.Flight.d_sites);
      let tl = Flight.timeline_of d in
      (match tl.Flight.tl_cycles with
      | [ cy ] ->
          Alcotest.(check int) "cycle start" 100 cy.Flight.cy_start;
          Alcotest.(check (option int)) "cycle end" (Some 200)
            cy.Flight.cy_end;
          Alcotest.(check (option int)) "cycle pause" (Some 3)
            cy.Flight.cy_pause
      | l -> Alcotest.failf "expected one cycle, got %d" (List.length l));
      Alcotest.(check int) "no events dropped" 0 tl.Flight.tl_dropped;
      restore ()

let test_parse_dump_rejects_junk () =
  List.iter
    (fun (what, j) ->
      match Flight.parse_dump j with
      | Ok _ -> Alcotest.failf "parsed %s" what
      | Error _ -> ())
    [
      ( "a version 1 dump",
        Telemetry.Obj [ ("flight", Telemetry.Obj [ ("version", Telemetry.Int 1) ]) ] );
      ("a non-object", Telemetry.Int 3);
      ("an empty object", Telemetry.Obj []);
      ( "an unversioned flight object",
        Telemetry.Obj [ ("flight", Telemetry.Obj []) ] );
    ]

(* A complete dump written at version 2 (which had the threaded engine's
   respecialize kind) is refused by its version, with the message
   [satbelim timeline] prints; the same dump at version 3 parses. *)
let test_parse_dump_refuses_version_2 () =
  fresh ();
  at 100
    (Flight.Cycle_start { collector = "test"; cycle = 0; snapshot_size = None });
  let with_version n =
    match Flight.dump_json ~reason:"unit" with
    | Telemetry.Obj [ ("flight", Telemetry.Obj kvs) ] ->
        Telemetry.Obj
          [
            ( "flight",
              Telemetry.Obj
                (List.map
                   (fun (k, v) ->
                     if k = "version" then (k, Telemetry.Int n) else (k, v))
                   kvs) );
          ]
    | _ -> Alcotest.fail "unexpected dump layout"
  in
  (match Flight.parse_dump (with_version 3) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "version-3 dump refused: %s" e);
  (match Flight.parse_dump (with_version 2) with
  | Ok _ -> Alcotest.fail "parsed a version-2 dump"
  | Error e ->
      Alcotest.(check string) "refused by version"
        "unsupported dump version 2" e);
  restore ()

(* --- runner integration: all four collectors ----------------------------- *)

let compile_full w =
  Harness.Exp.compile ~null_or_same:true ~move_down:true ~swap:true
    ~summaries:true w

let collectors =
  [
    ("satb", fun () -> Jrt.Runner.make_satb
      ~pacing:(Jrt.Pacer.config_of_trigger 24) ());
    ("incremental-update", fun () -> Jrt.Runner.make_incr
      ~pacing:(Jrt.Pacer.config_of_trigger 24) ());
    ("retrace", fun () -> Jrt.Runner.make_retrace
      ~pacing:(Jrt.Pacer.config_of_trigger 24) ());
    ("hybrid", fun () -> Jrt.Runner.make_hybrid
      ~pacing:(Jrt.Pacer.config_of_trigger 24) ());
  ]

let chaos_run ~gc cw =
  let chaos = Jrt.Chaos.create (Jrt.Chaos.of_seed 42) in
  Harness.Exp.run ~gc ~guards:true ~chaos ~fail_on_thread_error:false cw

(* each collector's chaos run dumps, parses back, and reconstructs a
   timeline whose cycles carry that collector's name — and rendering the
   same seed twice is byte-identical (the golden-test contract) *)
let test_timeline_all_collectors () =
  let cw = compile_full Workloads.Db.t in
  List.iter
    (fun (name, mk) ->
      let once () =
        ignore (chaos_run ~gc:(mk ()) cw);
        let d =
          match Flight.parse_dump (Flight.dump_json ~reason:"test") with
          | Ok d -> d
          | Error e -> Alcotest.failf "%s: dump does not parse: %s" name e
        in
        (Flight.render_timeline d, Flight.timeline_of d)
      in
      let r1, tl = once () in
      let r2, _ = once () in
      Alcotest.(check string) (name ^ ": render is deterministic") r1 r2;
      Alcotest.(check bool) (name ^ ": reconstructed at least one cycle")
        true
        (tl.Flight.tl_cycles <> []);
      List.iter
        (fun cy ->
          Alcotest.(check string)
            (name ^ ": cycle carries the collector name")
            name cy.Flight.cy_collector)
        tl.Flight.tl_cycles;
      Alcotest.(check bool) (name ^ ": sites reconstructed") true
        (tl.Flight.tl_sites <> []))
    collectors

(* the ring is reset per run: a second run's events never leak into the
   first run's dump surface *)
let test_begin_run_isolates_runs () =
  let cw = compile_full Workloads.Db.t in
  ignore (chaos_run ~gc:(Jrt.Runner.make_satb
    ~pacing:(Jrt.Pacer.config_of_trigger 24) ()) cw);
  let first = List.length (Flight.events ()) in
  Alcotest.(check bool) "first run recorded" true (first > 0);
  ignore
    (Harness.Exp.run ~gc:(Jrt.Runner.make_satb
      ~pacing:(Jrt.Pacer.config_of_trigger 24) ()) cw);
  let second = Flight.events () in
  Alcotest.(check bool) "no chaos events leak into the chaos-free run" true
    (List.for_all
       (fun (e : Flight.entry) ->
         match e.ev with Flight.Chaos_fault _ -> false | _ -> true)
       second)

(* --- capture protocol ---------------------------------------------------- *)

let test_capture_once_when_armed () =
  let dir = Filename.temp_file "flight" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:Flight.disarm_capture @@ fun () ->
  Alcotest.(check bool) "unarmed capture is refused" true
    (Flight.capture ~reason:"early" = None);
  Flight.arm_capture ~dir ();
  match Flight.capture ~reason:"unit-test" with
  | None ->
      (* another test (or an earlier capture in this process) already
         holds the one capture slot; the protocol is first-wins *)
      Alcotest.(check bool) "a capture already exists" true
        (Flight.captured () <> None)
  | Some path ->
      Alcotest.(check bool) "dump lands in the armed dir" true
        (Filename.dirname path = dir);
      Alcotest.(check bool) "dump file exists" true (Sys.file_exists path);
      (match
         Telemetry.json_of_string
           (In_channel.with_open_text path In_channel.input_all)
       with
      | Ok j -> (
          match Flight.parse_dump j with
          | Ok d ->
              Alcotest.(check string) "reason stamped" "unit-test"
                d.Flight.d_reason
          | Error e -> Alcotest.failf "captured dump unparseable: %s" e)
      | Error e -> Alcotest.failf "captured dump not JSON: %s" e);
      Alcotest.(check (option string)) "second capture is refused" None
        (Flight.capture ~reason:"again");
      Alcotest.(check bool) "captured reports the first capture" true
        (Flight.captured () = Some (path, "unit-test"))

let tests =
  [
    Alcotest.test_case "ring wraps, keeping the newest events" `Quick
      test_ring_wrap;
    Alcotest.test_case "disabled recorder records nothing" `Quick
      test_disabled_records_nothing;
    Alcotest.test_case "schema round-trips every kind" `Quick
      test_schema_round_trip;
    Alcotest.test_case "revocation-storm detector" `Quick
      test_revocation_storm_detector;
    Alcotest.test_case "storm window excludes slow revocation" `Quick
      test_storm_window_excludes_slow_revocation;
    Alcotest.test_case "oscillation and assist-spiral detectors" `Quick
      test_oscillation_and_spiral_detectors;
    Alcotest.test_case "degradation-cascade detector" `Quick
      test_cascade_detector;
    Alcotest.test_case "dump -> JSON -> parse -> timeline round-trip" `Quick
      test_dump_roundtrip;
    Alcotest.test_case "parse_dump rejects junk" `Quick
      test_parse_dump_rejects_junk;
    Alcotest.test_case "parse_dump refuses a version-2 dump" `Quick
      test_parse_dump_refuses_version_2;
    Alcotest.test_case
      "chaos timelines reconstruct deterministically (4 collectors)" `Quick
      test_timeline_all_collectors;
    Alcotest.test_case "begin_run isolates runs" `Quick
      test_begin_run_isolates_runs;
    Alcotest.test_case "capture: armed, once, parseable" `Quick
      test_capture_once_when_armed;
  ]
