(* The scheduling loop's contract: which programs run from safepoint to
   safepoint, the refused quantum, and what [gc_s] times. *)

let test_spawns_registry () =
  List.iter
    (fun (w : Workloads.Spec.t) ->
      Alcotest.(check bool) (w.name ^ " spawns") (w.name = "mtrt")
        (Jir.Program.spawns (Workloads.Spec.parse w)))
    Workloads.Registry.all

(* a spawn no call reaches still counts: the test is per instruction, not
   per call graph *)
let test_spawns_uncalled () =
  let prog =
    Jir.Parser.parse_linked
      {|
class Main
  method void worker () locals 0
    return
  end
  method void never () locals 0
    spawn Main.worker
    return
  end
  method void main () locals 0
    return
  end
end
|}
  in
  Alcotest.(check bool) "uncalled spawn" true (Jir.Program.spawns prog)

(* a quantum below 1 would hang at seed 0 and divide by zero at any other
   seed; it is refused before the run starts *)
let test_quantum_refused () =
  let cw = Harness.Exp.compile Workloads.Db.t in
  List.iter
    (fun (quantum, seed) ->
      Alcotest.check_raises
        (Printf.sprintf "quantum %d, seed %d" quantum seed)
        (Invalid_argument
           (Printf.sprintf "Runner.run: quantum must be at least 1, got %d"
              quantum))
        (fun () ->
          ignore
            (Harness.Exp.run ~gc:(Jrt.Runner.make_satb ()) ~quantum ~seed cw)))
    [ (0, 0); (0, 1); (-3, 0) ]

(* a spawn-free program has one mutator, so neither the quantum nor the
   seed's jitter of it moves anything the run records *)
let test_single_mutator_ignores_quantum () =
  let cw = Harness.Exp.compile Workloads.Jess.t in
  let run ~quantum ~seed =
    let r =
      Harness.Exp.run ~gc:(Jrt.Runner.make_retrace ()) ~quantum ~seed
        ~gc_period:5 cw
    in
    ( r.Jrt.Runner.steps,
      r.cost_units,
      Option.map (fun (g : Jrt.Runner.gc_summary) -> g.pause_steps) r.gc,
      List.map Flight.to_json (Flight.events ()) )
  in
  let want = run ~quantum:1 ~seed:0 in
  List.iter
    (fun (quantum, seed) ->
      Alcotest.(check bool)
        (Printf.sprintf "quantum %d, seed %d" quantum seed)
        true
        (run ~quantum ~seed = want))
    [ (7, 0); (500, 0); (7, 1); (500, 3) ]

(* [gc_s] times only the safepoints that ran collector, chaos or
   revocation work: none without a collector or chaos, some in every run
   that finished a cycle, and never more than the loop around them *)
let test_gc_s () =
  List.iter
    (fun (w : Workloads.Spec.t) ->
      let cw = Harness.Exp.compile w in
      List.iter
        (fun gc ->
          let r = Harness.Exp.run ~gc cw in
          let what = w.name ^ " " ^ Jrt.Runner.gc_name gc in
          (match r.gc with
          | None -> Alcotest.(check (float 0.)) (what ^ ": no work") 0. r.gc_s
          | Some g ->
              Alcotest.(check bool) (what ^ ": cycled") true (g.cycles > 0);
              Alcotest.(check bool) (what ^ ": timed") true (r.gc_s > 0.));
          Alcotest.(check bool) (what ^ ": inside the loop") true
            (r.loop_s >= r.gc_s))
        (Jrt.Runner.No_gc
        :: List.map (fun c -> Jrt.Runner.make c) Jrt.Runner.collectors))
    Workloads.Registry.table1

let tests =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("spawns: mtrt only", test_spawns_registry);
      ("spawns: an uncalled spawn", test_spawns_uncalled);
      ("quantum below 1 refused", test_quantum_refused);
      ("one mutator ignores quantum", test_single_mutator_ignores_quantum);
      ("gc_s times only work", test_gc_s);
    ]
