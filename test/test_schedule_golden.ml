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

   The expected lines live in [schedule_golden.expected]; {!Golden} says
   how to regenerate them after an intended schedule change. *)

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

let cell cw ~gc_name ~gc ~quantum ~gc_period ~seed ~chaos ~engine =
  let plan s = Jrt.Chaos.create (Jrt.Chaos.of_seed s) in
  let r =
    Harness.Exp.run ~gc ~guards:(chaos <> None) ~fail_on_thread_error:false
      ?chaos:(Option.map plan chaos) ~seed ~quantum ~gc_period ~engine cw
  in
  let m = r.Jrt.Runner.machine in
  let cycles, works, at =
    match r.gc with
    | Some g -> (g.cycles, g.final_pause_works, g.pause_steps)
    | None -> (0, [], [])
  in
  Printf.sprintf
    "%s gc=%s q=%d p=%d seed=%d chaos=%s %s | steps=%d cost=%d barrier=%d \
     paid=%d elided=%d cycles=%d works=[%s] at=[%s] events=%d:%s"
    cw.Harness.Exp.workload.name gc_name quantum gc_period seed
    (match chaos with Some s -> string_of_int s | None -> "-")
    (match engine with `Interp -> "interp" | `Threaded -> "threaded")
    r.steps r.cost_units r.barrier_units m.Jrt.Interp.barriers_executed
    m.Jrt.Interp.elided_barrier_execs cycles (ints works) (ints at)
    (Flight.recorded ()) (events_digest ())

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

let tests =
  [ Alcotest.test_case "960 schedules match the golden" `Quick test_golden ]
