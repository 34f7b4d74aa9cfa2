(* Tests for the telemetry layer: the JSONL event stream and its schema
   validator, the Chrome exporter, the [--metrics] counts rendered from
   a run's machine, marker, pacer and chaos fields, and the one event
   pipeline (the trace renders exactly the flight recorder's ring).
   Also the provenance ("explain") contract: every elided site names a
   rule chain and its guards on all six benchmark workloads. *)

let reset () = Telemetry.reset ()

(* --- event stream ------------------------------------------------------ *)

let test_events_noop_unless_armed () =
  reset ();
  Alcotest.(check bool) "disarmed by default" false (Telemetry.armed ());
  Telemetry.emit "test.dropped" [];
  Alcotest.(check int) "nothing recorded" 0 (List.length (Telemetry.events ()))

let with_recording f =
  Telemetry.set_recording true;
  Fun.protect f ~finally:(fun () -> Telemetry.set_recording false)

let test_event_ordering_and_roundtrip () =
  reset ();
  with_recording (fun () ->
      for i = 1 to 5 do
        Telemetry.emit "test.tick" [ ("i", Telemetry.Int i) ]
      done);
  let evs = Telemetry.events () in
  Alcotest.(check int) "all recorded" 5 (List.length evs);
  let rec check_order = function
    | a :: (b : Telemetry.event) :: rest ->
        Alcotest.(check bool) "seq strictly increasing" true
          (b.ev_seq > a.Telemetry.ev_seq);
        Alcotest.(check bool) "ts non-decreasing" true
          (b.ev_ts >= a.Telemetry.ev_ts);
        check_order (b :: rest)
    | _ -> ()
  in
  check_order evs;
  List.iter
    (fun (ev : Telemetry.event) ->
      match Telemetry.event_of_json (Telemetry.event_to_json ev) with
      | Ok ev' ->
          Alcotest.(check string) "kind round-trips" ev.ev_kind
            ev'.Telemetry.ev_kind;
          Alcotest.(check int) "seq round-trips" ev.ev_seq ev'.Telemetry.ev_seq
      | Error e -> Alcotest.failf "round-trip failed: %s" e)
    evs

let test_validate_event_line () =
  let ok = {|{"ts": 0.5, "seq": 3, "kind": "gc.cycle.start", "cycle": 1}|} in
  (match Telemetry.validate_event_line ok with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "valid line rejected: %s" e);
  List.iter
    (fun (what, line) ->
      match Telemetry.validate_event_line line with
      | Ok _ -> Alcotest.failf "accepted %s" what
      | Error _ -> ())
    [
      ("junk", "not json");
      ("non-object", "[1,2]");
      ("missing kind", {|{"ts": 0.5, "seq": 3}|});
      ("empty kind", {|{"ts": 0.5, "seq": 3, "kind": ""}|});
      ("negative ts", {|{"ts": -1, "seq": 3, "kind": "x"}|});
    ]

(* --- whole-trace validation on hand-broken traces ----------------------- *)

let test_validate_trace_rejects_broken () =
  let line ~ts ~seq kind =
    Printf.sprintf {|{"ts": %g, "seq": %d, "kind": %S}|} ts seq kind
  in
  (* a well-bracketed two-run trace is fine *)
  (match
     Telemetry.validate_trace_lines
       [
         line ~ts:0.1 ~seq:0 "run.start";
         line ~ts:0.2 ~seq:1 "run.finish";
         line ~ts:0.3 ~seq:2 "run.start";
         line ~ts:0.4 ~seq:3 "run.finish";
       ]
   with
  | Ok evs -> Alcotest.(check int) "two runs accepted" 4 (List.length evs)
  | Error (l, msg) -> Alcotest.failf "valid trace rejected at %d: %s" l msg);
  let broken =
    [
      ( "non-monotonic timestamps",
        3,
        [
          line ~ts:0.1 ~seq:0 "run.start";
          line ~ts:0.5 ~seq:1 "gc.cycle.start";
          line ~ts:0.2 ~seq:2 "run.finish";
        ] );
      ( "non-increasing sequence numbers",
        2,
        [ line ~ts:0.1 ~seq:3 "run.start"; line ~ts:0.2 ~seq:3 "run.finish" ]
      );
      ( "duplicate run.finish",
        3,
        [
          line ~ts:0.1 ~seq:0 "run.start";
          line ~ts:0.2 ~seq:1 "run.finish";
          line ~ts:0.3 ~seq:2 "run.finish";
        ] );
      ("orphan run.finish", 1, [ line ~ts:0.1 ~seq:0 "run.finish" ]);
    ]
  in
  List.iter
    (fun (what, want_line, lines) ->
      match Telemetry.validate_trace_lines lines with
      | Ok _ -> Alcotest.failf "accepted %s" what
      | Error (l, _) ->
          Alcotest.(check int) (what ^ " flagged on the right line") want_line
            l)
    broken

(* an empty trace is rejected as a whole-file diagnostic (line 0),
   distinct from a malformed line *)
let test_validate_trace_empty () =
  List.iter
    (fun (what, lines) ->
      match Telemetry.validate_trace_lines lines with
      | Ok evs -> Alcotest.failf "%s accepted (%d events)" what (List.length evs)
      | Error (l, msg) ->
          Alcotest.(check int) (what ^ " flagged as whole-file") 0 l;
          Alcotest.(check string)
            (what ^ " message")
            "empty trace (no events)" msg)
    [ ("no lines", []); ("only blank lines", [ ""; "   "; "" ]) ];
  match Telemetry.validate_trace_lines [ "not json" ] with
  | Ok _ -> Alcotest.fail "malformed line accepted"
  | Error (l, _) ->
      Alcotest.(check int) "malformed line is not the empty diagnostic" 1 l

let test_chrome_export_shape () =
  reset ();
  with_recording (fun () ->
      Telemetry.emit "test.a" [];
      Telemetry.emit "test.b" [ ("n", Telemetry.Int 1) ]);
  match Telemetry.chrome_of_events (Telemetry.events ()) with
  | Telemetry.Obj fields -> (
      match List.assoc_opt "traceEvents" fields with
      | Some (Telemetry.List evs) ->
          Alcotest.(check bool) "one trace event per event" true
            (List.length evs >= 2)
      | _ -> Alcotest.fail "traceEvents missing or not a list")
  | _ -> Alcotest.fail "chrome trace is not an object"

(* --- a real run streams a schema-valid trace --------------------------- *)

let compile_full w =
  Harness.Exp.compile ~null_or_same:true ~move_down:true ~swap:true w

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")

let kind_of line =
  match Telemetry.json_of_string line with
  | Ok (Telemetry.Obj kvs) -> (
      match List.assoc_opt "kind" kvs with Some (Telemetry.Str k) -> k | _ -> "")
  | _ -> ""

let test_run_trace_schema_valid () =
  reset ();
  let path = Filename.temp_file "satbelim-trace" ".jsonl" in
  let oc = open_out path in
  Telemetry.attach_sink oc;
  let chaos =
    Jrt.Chaos.create
      {
        Jrt.Chaos.seed = 1;
        faults = [ Jrt.Chaos.Late_spawn { at_instr = 1000; stores = 4 } ];
        quantum = None;
        gc_period = None;
      }
  in
  ignore
    (Harness.Exp.run
       ~gc:(Jrt.Runner.make_satb ~pacing:(Jrt.Pacer.config_of_trigger 24)
         ~steps_per_increment:8 ())
       ~guards:true ~chaos ~fail_on_thread_error:false
       (compile_full Workloads.Db.t));
  Telemetry.detach_sink ();
  close_out oc;
  let lines = read_lines path in
  Sys.remove path;
  match Telemetry.validate_trace_lines lines with
  | Ok evs ->
      Alcotest.(check bool) "trace is non-trivial" true (evs <> []);
      let kinds = List.map kind_of lines in
      List.iter
        (fun k ->
          Alcotest.(check bool) (k ^ " event present") true (List.mem k kinds))
        [ "run.start"; "gc.cycle.start"; "chaos.fault"; "revoke.apply";
          "run.finish" ]
  | Error (line, msg) -> Alcotest.failf "line %d: %s" line msg

(* --- [--metrics] counts: machine, marker, pacer and chaos fields,
   rendered from the run's report --------------------------------------- *)

let jrt_fields (m : Jrt.Interp.t) =
  [
    ("jrt.barriers_executed", m.barriers_executed);
    ("jrt.elided_barrier_execs", m.elided_barrier_execs);
    ("jrt.retrace_checks", m.retrace_checks);
    ("jrt.revocation_events", m.revocation_events);
    ("jrt.revoked_sites", m.revoked_sites);
    ("jrt.degradations", m.degradations);
    ("jrt.degraded_swap_execs", m.degraded_swap_execs);
    ("jrt.assist_execs", m.assist_execs);
  ]

(* gc.* and retrace.* from the cycle reports (these runs use satb or
   retrace, whose re-scans are all retrace-list entries), pacer.* from the
   pacer stats and the run's outcome, chaos.* from the plan's stats *)
let run_fields (r : Jrt.Runner.report) chaos =
  let g = Option.get r.gc and p = Option.get r.pacer in
  let sum f =
    List.fold_left
      (fun a (c : Jrt.Marker.cycle_report) -> a + f c.counts)
      0 g.reports
  in
  let c = Jrt.Chaos.stats chaos in
  [
    ("gc.cycles", g.cycles);
    ("gc.violations", g.total_violations);
    ("gc.restarts", sum (fun c -> c.restarts));
    ("retrace.rescans", List.fold_left ( + ) 0 g.retraced);
    ("retrace.enqueues", sum (fun c -> c.enqueued));
    ("retrace.repair_enqueues", sum (fun c -> c.repair_enqueues));
    ("retrace.budget_overflows", sum (fun c -> c.budget_overflows));
    ("pacer.assists", p.p_assists);
    ("pacer.degraded_entries", p.p_degraded_entries);
    ("pacer.degraded_cycles", p.p_degraded_cycles);
    ("pacer.hard_stops", if r.hard_stop = None then 0 else 1);
    ("chaos.spawns", c.spawns);
    ("chaos.damage_stores", c.damage_stores);
    ("chaos.skipped_barriers", c.skipped_barriers);
    ("chaos.preempted_increments", c.preempted_increments);
    ("chaos.pressure_remarks", c.pressure_remarks);
    ("chaos.class_loads", c.class_loads);
    ("chaos.spike_allocs", c.spike_allocs);
    ("chaos.ramp_allocs", c.ramp_allocs);
  ]

(* the pacer gauges hold the run's final values; the live size is the
   last cycle end's *)
let pacer_gauges (r : Jrt.Runner.report) =
  let p = Option.get r.pacer in
  [
    ("pacer.trigger_units", float_of_int p.p_trigger_units);
    ("pacer.goal", p.p_goal);
    ( "pacer.live_units",
      if p.p_cycles = 0 then 0.0 else float_of_int p.p_last_live_units );
  ]

(* a rendered metrics member, as a name -> value list *)
let member (metrics : Telemetry.json) key =
  match metrics with
  | Telemetry.Obj kvs -> (
      match List.assoc_opt key kvs with
      | Some (Telemetry.Obj named) -> named
      | _ -> Alcotest.failf "metrics have no %s object" key)
  | _ -> Alcotest.fail "metrics are not an object"

let counter metrics name =
  match List.assoc_opt name (member metrics "counters") with
  | Some (Telemetry.Int v) -> v
  | _ -> Alcotest.failf "no counter %s" name

let gauge metrics name =
  match List.assoc_opt name (member metrics "gauges") with
  | Some (Telemetry.Float v) -> v
  | _ -> Alcotest.failf "no gauge %s" name

(* the metrics of one run, as [satbelim run --metrics] renders them *)
let metrics_of ~chaos (cw : Harness.Exp.compiled_workload) r =
  Harness.Metrics.render ~chaos cw.compiled [ r ]

let check_metrics what metrics (r : Jrt.Runner.report) chaos =
  List.iter
    (fun (name, v) ->
      Alcotest.(check int) (what ^ ": " ^ name) v (counter metrics name))
    (jrt_fields r.machine @ run_fields r chaos);
  List.iter
    (fun (name, v) ->
      Alcotest.(check (float 0.0)) (what ^ ": " ^ name) v (gauge metrics name))
    (pacer_gauges r)

let chaos_of faults =
  Jrt.Chaos.create
    { Jrt.Chaos.seed = 1; faults; quantum = None; gc_period = None }

(* The rendered metrics read each run's totals from its report, so after
   any chaos run they equal the report's machine, marker, pacer and chaos
   fields. *)
let reconciliation_prop =
  QCheck2.Test.make
    ~name:"telemetry counters reconcile with machine stats under chaos"
    ~count:20
    (QCheck2.Gen.triple
       (QCheck2.Gen.oneofl Workloads.Registry.table1)
       (QCheck2.Gen.int_range 1 500)
       QCheck2.Gen.bool)
    (fun (w, seed, use_retrace) ->
      let cw = compile_full w in
      let gc =
        if use_retrace then
          Jrt.Runner.make_retrace ~pacing:(Jrt.Pacer.config_of_trigger 24)
            ~steps_per_increment:8 ()
        else Jrt.Runner.make_satb ~pacing:(Jrt.Pacer.config_of_trigger 24)
          ~steps_per_increment:8 ()
      in
      let chaos = Jrt.Chaos.create (Jrt.Chaos.of_seed seed) in
      let r =
        Harness.Exp.run ~gc ~guards:true ~chaos ~fail_on_thread_error:false
          ~seed cw
      in
      let metrics = metrics_of ~chaos cw r in
      List.iter
        (fun (name, v) ->
          if counter metrics name <> v then
            QCheck2.Test.fail_reportf "%s: metrics %d <> run %d" name
              (counter metrics name) v)
        (jrt_fields r.machine @ run_fields r chaos);
      List.iter
        (fun (name, v) ->
          if gauge metrics name <> v then
            QCheck2.Test.fail_reportf "%s: gauge %g <> pacer %g" name
              (gauge metrics name) v)
        (pacer_gauges r);
      true)

(* the degraded-mode path (budget overflow) is rare under of_seed plans;
   pin it down deterministically, with a late spawn so the run also
   revokes *)
let test_reconciliation_budget_overflow () =
  let chaos =
    chaos_of
      [
        Jrt.Chaos.Preempt_marker { at_alloc = 24; skips = 700 };
        Jrt.Chaos.Late_spawn { at_instr = 3000; stores = 4 };
      ]
  in
  let cw = compile_full Workloads.Db.t in
  let r =
    Harness.Exp.run
      ~gc:
        (Jrt.Runner.Gc
           {
             policy = Jrt.Retrace_gc.policy ~retrace_budget:0 ();
             steps_per_increment = 1;
             pacing = Jrt.Pacer.config_of_trigger 24;
           })
      ~guards:true ~chaos ~fail_on_thread_error:false cw
  in
  let m = r.machine in
  Alcotest.(check bool) "chaos run revoked, checked and degraded" true
    (m.revocation_events > 0 && m.retrace_checks > 0
    && m.degradations > 0 && m.degraded_swap_execs > 0);
  check_metrics "chaos" (metrics_of ~chaos cw r) r chaos

(* a hard-limit abort that assisted first is still reported from its
   machine; every name is present for --metrics *)
let test_reconciliation_hard_limit () =
  let pacing =
    {
      Jrt.Pacer.default_config with
      soft_limit = Some 60;
      hard_limit = Some 300;
    }
  in
  let chaos =
    chaos_of [ Jrt.Chaos.Alloc_spike { at_instr = 2000; count = 400 } ]
  in
  let cw = compile_full Workloads.Db.t in
  let r =
    Harness.Exp.run
      ~gc:(Jrt.Runner.make_satb ~pacing ~steps_per_increment:8 ())
      ~guards:true ~chaos ~fail_on_thread_error:false cw
  in
  Alcotest.(check bool) "hard-limit abort after assists" true
    (r.hard_stop <> None && r.machine.assist_execs > 0);
  let metrics = metrics_of ~chaos cw r in
  check_metrics "hard-limit abort" metrics r chaos;
  let present =
    List.map fst (member metrics "counters")
    @ List.map fst (member metrics "gauges")
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " present") true (List.mem name present))
    (List.map fst (jrt_fields r.machine @ run_fields r chaos)
    @ List.map fst (pacer_gauges r))

(* --- one pipeline: the trace renders exactly the ring ------------------- *)

let envelope = [ "run.start"; "run.finish"; "analysis.pass" ]

(* a trace line without its [ts] and [seq], re-serialized *)
let strip_stamp line =
  match Telemetry.json_of_string line with
  | Ok (Telemetry.Obj kvs) ->
      Telemetry.json_to_string
        (Telemetry.Obj (List.filter (fun (k, _) -> k <> "ts" && k <> "seq") kvs))
  | _ -> Alcotest.failf "trace line is not an object: %s" line

(* One chaos seed under each collector on both engines, with a JSONL sink
   attached: apart from the run envelope, the trace's events are the
   ring's events, in order, rendered by the one schema — kind, step and
   every field. *)
let test_trace_matches_ring () =
  let cw = compile_full Workloads.Db.t in
  let seen = ref [] in
  List.iter
    (fun (name, gc) ->
      List.iter
        (fun engine ->
          let what =
            name ^ (match engine with `Interp -> "/interp" | `Threaded -> "/threaded")
          in
          Telemetry.reset ();
          let path = Filename.temp_file "satbelim-ring" ".jsonl" in
          let oc = open_out path in
          Telemetry.attach_sink oc;
          ignore
            (Harness.Exp.run ~gc ~engine ~guards:true
               ~chaos:(Jrt.Chaos.create (Jrt.Chaos.of_seed 42))
               ~fail_on_thread_error:false cw);
          Telemetry.detach_sink ();
          close_out oc;
          let lines = read_lines path in
          Sys.remove path;
          let trace =
            List.filter (fun l -> not (List.mem (kind_of l) envelope)) lines
          in
          let ring = Flight.events () in
          Alcotest.(check int) (what ^ ": the ring did not wrap")
            (Flight.recorded ()) (List.length ring);
          Alcotest.(check (list string)) (what ^ ": trace = ring")
            (List.map (fun e -> Telemetry.json_to_string (Flight.to_json e)) ring)
            (List.map strip_stamp trace);
          seen := List.map kind_of trace @ !seen)
        [ `Interp; `Threaded ])
    [
      ("satb", Jrt.Runner.make_satb ~pacing:(Jrt.Pacer.config_of_trigger 24) ());
      ("incr", Jrt.Runner.make_incr ~pacing:(Jrt.Pacer.config_of_trigger 24) ());
      ("retrace", Jrt.Runner.make_retrace
        ~pacing:(Jrt.Pacer.config_of_trigger 24) ());
      ("hybrid", Jrt.Runner.make_hybrid
        ~pacing:(Jrt.Pacer.config_of_trigger 24) ());
    ];
  (* one name per kind: the trace's names won *)
  List.iter
    (fun k -> Alcotest.(check bool) (k ^ " streamed") true (List.mem k !seen))
    [ "gc.cycle.start"; "gc.cycle.finish"; "gc.pause"; "chaos.fault" ];
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " is gone") false (List.mem k !seen))
    [ "mark.start"; "mark.end"; "gc.cycle.begin"; "pacer.soft.enter" ];
  List.iter
    (fun (ev, k) -> Alcotest.(check string) k k (Flight.kind_name ev))
    [
      (Flight.Degraded { collector = "satb"; live_units = 1; soft_limit = 1 },
        "pacer.degraded");
      (Flight.Recovered { collector = "satb"; live_units = 1; soft_limit = 1 },
        "pacer.recovered");
    ]

(* --- provenance: every elided site explains itself ---------------------- *)

let test_explain_covers_all_elided_sites () =
  List.iter
    (fun (w : Workloads.Spec.t) ->
      let cw =
        Harness.Exp.compile ~null_or_same:true ~move_down:true ~swap:true
          ~summaries:true w
      in
      let compiled = cw.Harness.Exp.compiled in
      let stats = Satb_core.Driver.static_stats compiled in
      let exps = Satb_core.Driver.explanations compiled in
      Alcotest.(check int)
        (w.name ^ ": one explanation per elided site")
        stats.Satb_core.Driver.elided_sites (List.length exps);
      List.iter
        (fun (p : Satb_core.Driver.provenance) ->
          let site = Jir.Types.string_of_site p.pv_key in
          Alcotest.(check bool)
            (w.name ^ "/" ^ site ^ ": names a rule")
            true
            (p.pv_rule <> "" && p.pv_rule <> "keep");
          Alcotest.(check bool)
            (w.name ^ "/" ^ site ^ ": has a fact chain")
            true
            (p.pv_facts <> []);
          match
            Lazy.force (Satb_core.Driver.barrier compiled p.pv_key).del_why
          with
          | Some j ->
              Alcotest.(check bool)
                (w.name ^ "/" ^ site ^ ": justification names the rule")
                true
                (String.length j >= String.length p.pv_rule)
          | None ->
              Alcotest.failf "%s/%s: no runtime justification" w.name site)
        exps)
    Workloads.Registry.table1

let test_explanations_sorted () =
  let cw = compile_full Workloads.Db.t in
  let exps = Satb_core.Driver.explanations cw.Harness.Exp.compiled in
  let keys = List.map (fun (p : Satb_core.Driver.provenance) -> p.pv_key) exps in
  Alcotest.(check bool) "deterministic site order" true
    (List.sort compare keys = keys)

let tests =
  [
    Alcotest.test_case "events drop when disarmed" `Quick
      test_events_noop_unless_armed;
    Alcotest.test_case "event ordering and JSON round-trip" `Quick
      test_event_ordering_and_roundtrip;
    Alcotest.test_case "JSONL schema validator" `Quick test_validate_event_line;
    Alcotest.test_case "trace validator rejects hand-broken traces" `Quick
      test_validate_trace_rejects_broken;
    Alcotest.test_case "trace validator reports empty traces distinctly"
      `Quick test_validate_trace_empty;
    Alcotest.test_case "chrome trace export shape" `Quick
      test_chrome_export_shape;
    Alcotest.test_case "chaos run streams a schema-valid trace" `Quick
      test_run_trace_schema_valid;
    QCheck_alcotest.to_alcotest reconciliation_prop;
    Alcotest.test_case "budget overflow reconciles" `Quick
      test_reconciliation_budget_overflow;
    Alcotest.test_case "hard-limit abort reconciles" `Quick
      test_reconciliation_hard_limit;
    Alcotest.test_case "trace equals ring" `Quick test_trace_matches_ring;
    Alcotest.test_case "explain covers every elided site (six workloads)"
      `Quick test_explain_covers_all_elided_sites;
    Alcotest.test_case "explanations are deterministically ordered" `Quick
      test_explanations_sorted;
  ]
