(* The threaded engine's code cache ({!Jrt.Exec}): code is compiled once
   per program content and bound per run.  Sharing must be invisible —
   every run of shared code equals a fresh interpreter run, two live
   machines of one program do not interfere — and the cache must hold
   neither a finished run's machine nor the code of collected
   programs. *)

let compile_full w =
  Harness.Exp.compile ~null_or_same:true ~move_down:true ~swap:true
    ~summaries:true w

(* a machine of [prog] with its entry thread spawned, bound to the
   engine *)
let bind ?(cfg = Jrt.Interp.default_config) prog entry =
  let m = Jrt.Interp.create ~cfg prog in
  ignore (Jrt.Interp.spawn_thread m entry []);
  (m, Jrt.Exec.create m)

let live (m : Jrt.Interp.t) =
  List.filter (fun th -> not th.Jrt.Interp.finished) m.Jrt.Interp.threads

(* one round: a slice of [fuel] for every live thread; [false] once
   every thread has finished *)
let round m e ~fuel =
  match live m with
  | [] -> false
  | ths ->
      List.iter (fun th -> ignore (Jrt.Exec.slice e th ~fuel)) ths;
      true

let drive m e =
  while round m e ~fuel:97 do
    ()
  done

(* everything a collector-free run leaves behind *)
let fingerprint (m : Jrt.Interp.t) =
  let h = m.Jrt.Interp.heap in
  let objects = ref [] in
  for id = h.Jrt.Heap.next_id - 1 downto 0 do
    let o = Jrt.Heap.get h id in
    objects := (o.Jrt.Heap.cls, o.Jrt.Heap.dead, o.Jrt.Heap.payload) :: !objects
  done;
  let statics =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) m.Jrt.Interp.statics []
    |> List.sort compare
  in
  ( (m.Jrt.Interp.instr_count, m.Jrt.Interp.cost_units),
    (m.Jrt.Interp.barriers_executed, m.Jrt.Interp.elided_barrier_execs),
    Jrt.Interp.dyn_stats m,
    statics,
    !objects,
    List.map
      (fun th -> (th.Jrt.Interp.tid, th.Jrt.Interp.error))
      m.Jrt.Interp.threads )

let run_flight ~gc ~engine cw =
  let chaos = Jrt.Chaos.create (Jrt.Chaos.of_seed 42) in
  let r =
    Harness.Exp.run ~gc ~guards:true ~chaos ~fail_on_thread_error:false
      ~engine cw
  in
  (r, Flight.events ())

(* Each Table-1 workload compiled twice: both programs get physically
   the same code.  The threaded engine then runs the two programs
   alternately, with runs of the next workload in between, under three
   collectors and a chaos plan whose revocations patch sites mid-run;
   every run must equal a fresh interpreter run, flight events
   included. *)
let test_shared_code_invisible () =
  let table1 = Array.of_list Workloads.Registry.table1 in
  let twice = Array.map (fun w -> (compile_full w, compile_full w)) table1 in
  Array.iter
    (fun ((a : Harness.Exp.compiled_workload), b) ->
      let code cw =
        Jrt.Exec.code
          (snd
             (bind cw.Harness.Exp.compiled.program
                cw.Harness.Exp.workload.Workloads.Spec.entry))
      in
      if a.Harness.Exp.compiled.program == b.Harness.Exp.compiled.program then
        Alcotest.fail "compiled twice, got one program";
      Alcotest.(check bool)
        (a.workload.name ^ ": equal programs share code")
        true
        (code a == code b))
    twice;
  let revocations = ref 0 in
  List.iter
    (fun (gc_name, gc) ->
      Array.iteri
        (fun i (a, b) ->
          let other, _ = twice.((i + 1) mod Array.length twice) in
          List.iter
            (fun (cw : Harness.Exp.compiled_workload) ->
              let ri, ei = run_flight ~gc:(gc ()) ~engine:`Interp cw in
              let rt, et = run_flight ~gc:(gc ()) ~engine:`Threaded cw in
              revocations :=
                !revocations + rt.Jrt.Runner.machine.Jrt.Interp.revocation_events;
              match Harness.Engines.diff ~flight:(ei, et) ri rt with
              | None -> ()
              | Some d ->
                  Alcotest.failf "%s/%s: shared code diverges — %s"
                    cw.workload.name gc_name d)
            [ a; other; b; a ])
        twice)
    [
      ("satb", fun () -> Jrt.Runner.make_satb ());
      ("hybrid", fun () -> Jrt.Runner.make_hybrid ());
      ("retrace", fun () -> Jrt.Runner.make_retrace ());
    ];
  Alcotest.(check bool) "revocations happened" true (!revocations > 0)

(* Two live machines of one program, their slices interleaved to
   completion: each ends exactly as a machine run alone. *)
let test_two_live_machines () =
  List.iter
    (fun (w : Workloads.Spec.t) ->
      let cw = compile_full w in
      let prog = cw.compiled.program in
      let cfg =
        { Jrt.Interp.default_config with policy = Harness.Exp.policy_of cw }
      in
      let alone =
        let m, e = bind ~cfg prog w.entry in
        drive m e;
        fingerprint m
      in
      let m1, e1 = bind ~cfg prog w.entry in
      let m2, e2 = bind ~cfg prog w.entry in
      let go1 = ref true and go2 = ref true in
      while !go1 || !go2 do
        if !go1 then go1 := round m1 e1 ~fuel:97;
        if !go2 then go2 := round m2 e2 ~fuel:97
      done;
      Alcotest.(check bool) (w.name ^ ": one code") true
        (Jrt.Exec.code e1 == Jrt.Exec.code e2);
      Alcotest.(check bool) (w.name ^ ": first machine") true
        (fingerprint m1 = alone);
      Alcotest.(check bool) (w.name ^ ": second machine") true
        (fingerprint m2 = alone))
    Workloads.Registry.table1

(* The code outlives the run, the machine does not: with the program
   still alive, nothing the run built is reachable once it returns. *)
let test_run_leaves_no_machine () =
  let cw = compile_full Workloads.Jbb.t in
  let prog = cw.compiled.program in
  let heap = Weak.create 1 in
  let run () =
    let m, e = bind prog Workloads.Jbb.t.entry in
    drive m e;
    Weak.set heap 0 (Some m.Jrt.Interp.heap)
  in
  run ();
  Gc.full_major ();
  Alcotest.(check bool) "heap collected" true (Weak.get heap 0 = None);
  (* the program, and with it the code, is still live here *)
  let _, e = bind prog Workloads.Jbb.t.entry in
  Alcotest.(check bool) "code still compiled" true
    (Jrt.Exec.compiled_methods e > 0)

(* Code dies with its programs: a few hundred generated programs, run
   and dropped, leave no cache entry behind. *)
let test_code_dies_with_programs () =
  Gc.full_major ();
  let before = Jrt.Exec.cached_programs () in
  let programs =
    QCheck2.Gen.generate ~rand:(Random.State.make [| 18 |]) ~n:300
      Gen.gen_program
    |> List.map Jir.Program.of_program
  in
  List.iter
    (fun prog ->
      let m, e = bind prog { Jir.Types.mclass = "Main"; mname = "m" } in
      drive m e)
    programs;
  let during = Jrt.Exec.cached_programs () in
  Alcotest.(check bool) "one entry per live program" true
    (during >= before + List.length programs);
  ignore (Sys.opaque_identity programs);
  Gc.full_major ();
  Alcotest.(check bool) "entries gone with their programs" true
    (Jrt.Exec.cached_programs () <= before)

let tests =
  [
    Alcotest.test_case "shared code is invisible" `Quick
      test_shared_code_invisible;
    Alcotest.test_case "two live machines of one program" `Quick
      test_two_live_machines;
    Alcotest.test_case "a run leaves no machine behind" `Quick
      test_run_leaves_no_machine;
    Alcotest.test_case "code dies with its programs" `Quick
      test_code_dies_with_programs;
  ]
