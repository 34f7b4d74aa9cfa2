(* Schedule golden: what the runner's scheduling loop made of a grid of
   cadences.  One line per cell of mtrt (the one bundled workload that
   spawns) and three single-mutator workloads (javac, jess and
   micro-expand, the quickest to run) × the five collector choices ×
   quantum {1, 50, 500} × gc_period {1, 32} × runner seeds {0, 1} ×
   {no chaos, chaos plan 42} × both engines.  A line holds the steps,
   cost and barrier units, paid and elided barrier executions, the
   cycles with each final pause's work and step, and a digest of the
   flight ring's events.  Any change to where safepoints fire, or to
   what runs at one, moves one of them.

   A second grid pins the pacer's degrade path, which the default
   heap-growth goal above never takes: jess and micro-expand under satb
   and incr with a soft limit (the pacer degrades and, on jess,
   recovers), a soft limit with a hard limit above the run's peak, and
   one the run hits (a clean abort), at gc_period {1, 32} on both
   engines.  Its lines add the pacer's counters.

   The expected lines live in [schedule_golden.expected] and
   [schedule_pacing.expected]; {!Golden} says how to regenerate them
   after an intended schedule change. *)

let workloads = Workloads.[ Mtrt.t; Javac_like.t; Jess.t; Micro.expand ]

let gcs =
  [
    ("none", Jrt.Runner.No_gc);
    ("satb", Jrt.Runner.make_satb ());
    ("incr", Jrt.Runner.make_incr ());
    ("retrace", Jrt.Runner.make_retrace ());
    ("hybrid", Jrt.Runner.make_hybrid ());
  ]

let ints l = String.concat "," (List.map string_of_int l)

let events_digest () =
  let b = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string b (Telemetry.json_to_string (Flight.to_json e));
      Buffer.add_char b '\n')
    (Flight.events ());
  Digest.to_hex (Digest.string (Buffer.contents b))

(* what a run left behind: counters, cycles and the flight ring; with
   [~digest_pauses], one digest stands for the final pauses' works and
   steps (a gc_period-1 run with a soft limit finishes thousands of
   cycles) *)
let outcome ?(digest_pauses = false) (r : Jrt.Runner.report) =
  let m = r.machine in
  let cycles, works, at =
    match r.gc with
    | Some g -> (g.cycles, g.final_pause_works, g.pause_steps)
    | None -> (0, [], [])
  in
  let pauses = Printf.sprintf "works=[%s] at=[%s]" (ints works) (ints at) in
  Printf.sprintf
    "steps=%d cost=%d barrier=%d paid=%d elided=%d cycles=%d %s events=%d:%s"
    r.steps r.cost_units r.barrier_units m.Jrt.Interp.barriers_executed
    m.Jrt.Interp.elided_barrier_execs cycles
    (if digest_pauses then
       "pauses=" ^ Digest.to_hex (Digest.string pauses)
     else pauses)
    (Flight.recorded ()) (events_digest ())

let engine_name = function `Interp -> "interp" | `Threaded -> "threaded"

let cell cw ~gc_name ~gc ~quantum ~gc_period ~seed ~chaos ~engine =
  let plan s = Jrt.Chaos.create (Jrt.Chaos.of_seed s) in
  let r =
    Harness.Exp.run ~gc ~guards:(chaos <> None) ~fail_on_thread_error:false
      ?chaos:(Option.map plan chaos) ~seed ~quantum ~gc_period ~engine cw
  in
  Printf.sprintf "%s gc=%s q=%d p=%d seed=%d chaos=%s %s | %s"
    cw.Harness.Exp.workload.name gc_name quantum gc_period seed
    (match chaos with Some s -> string_of_int s | None -> "-")
    (engine_name engine) (outcome r)

let lines () =
  List.concat_map
    (fun w ->
      let cw = Harness.Exp.compile w in
      List.concat_map
        (fun (gc_name, gc) ->
          List.concat_map
            (fun quantum ->
              List.concat_map
                (fun gc_period ->
                  List.concat_map
                    (fun seed ->
                      List.concat_map
                        (fun chaos ->
                          List.map
                            (fun engine ->
                              cell cw ~gc_name ~gc ~quantum ~gc_period ~seed
                                ~chaos ~engine)
                            [ `Interp; `Threaded ])
                        [ None; Some 42 ])
                    [ 0; 1 ])
                [ 1; 32 ])
            [ 1; 50; 500 ])
        gcs)
    workloads

let test_golden () =
  Golden.check ~expected:"schedule_golden.expected" ~what:"cell" (lines ())

(* per workload: a soft limit alone, one under a hard limit the run
   never reaches, and one under a hard limit it hits *)
let pacings =
  let limits ?hard soft =
    { Jrt.Pacer.default_config with soft_limit = Some soft; hard_limit = hard }
  in
  [
    ( Workloads.Jess.t,
      [ ("soft=800", limits 800); ("soft=700,hard=1200", limits 700 ~hard:1200);
        ("soft=600,hard=690", limits 600 ~hard:690) ] );
    ( Workloads.Micro.expand,
      [ ("soft=24", limits 24); ("soft=24,hard=64", limits 24 ~hard:64);
        ("soft=24,hard=40", limits 24 ~hard:40) ] );
  ]

let pacing_cell cw ~gc_name ~gc ~pacing_name ~gc_period ~engine =
  let r = Harness.Exp.run ~gc ~fail_on_thread_error:false ~gc_period ~engine cw in
  let pacer =
    match r.pacer with
    | Some p ->
        Printf.sprintf
          " | state=%s degraded=%d/%d entries=%d assists=%d peak=%d stop=%b"
          (Jrt.Pacer.state_name p.Jrt.Pacer.p_state)
          p.p_degraded_cycles p.p_cycles p.p_degraded_entries p.p_assists
          p.p_max_live_units (r.hard_stop <> None)
    | None -> ""
  in
  Printf.sprintf "%s gc=%s pacing=%s p=%d %s | %s%s"
    cw.Harness.Exp.workload.name gc_name pacing_name gc_period
    (engine_name engine)
    (outcome ~digest_pauses:true r)
    pacer

let pacing_lines () =
  List.concat_map
    (fun (w, ps) ->
      let cw = Harness.Exp.compile w in
      List.concat_map
        (fun (pacing_name, pacing) ->
          List.concat_map
            (fun (gc_name, collector) ->
              let gc = Jrt.Runner.make ~pacing collector in
              List.concat_map
                (fun gc_period ->
                  List.map
                    (fun engine ->
                      pacing_cell cw ~gc_name ~gc ~pacing_name ~gc_period
                        ~engine)
                    [ `Interp; `Threaded ])
                [ 1; 32 ])
            [ ("satb", Jrt.Runner.Satb); ("incr", Jrt.Runner.Incr) ])
        ps)
    pacings

let test_pacing_golden () =
  Golden.check ~expected:"schedule_pacing.expected" ~what:"cell"
    (pacing_lines ())

let tests =
  [
    Alcotest.test_case "960 schedules match the golden" `Quick test_golden;
    Alcotest.test_case "degrade-path schedules match the golden" `Quick
      test_pacing_golden;
  ]
