(* The flagship end-to-end soundness property (DESIGN.md §5):

   For every workload, under adversarial mutator/collector interleavings,
   running with the analysis-directed barrier-elision policy must preserve
   the SATB snapshot invariant — every object reachable when marking
   started is marked when it finishes.  A single wrongly-removed barrier
   shows up as a violation (see the elide-all negative test in
   Test_gc). *)

let run_one (w : Workloads.Spec.t) ~null_or_same ~seed ~quantum ~gc_period
    ~steps ~trigger =
  let cw = Harness.Exp.compile ~null_or_same w in
  let r =
    Harness.Exp.run
      ~gc:
        (Jrt.Runner.make_satb ~steps_per_increment:steps
           ~pacing:(Jrt.Pacer.config_of_trigger trigger) ())
      ~seed ~quantum ~gc_period cw
  in
  match r.gc with
  | Some g -> g.total_violations
  | None -> Alcotest.fail "expected gc summary"

(* schedule parameters derived from a seed, exploring many interleavings *)
let params_of_seed seed =
  let quantum = 1 + (seed * 7 mod 97) in
  let gc_period = 1 + (seed * 13 mod 61) in
  let steps = 1 + (seed * 5 mod 40) in
  let trigger = 8 + (seed * 11 mod 80) in
  (quantum, gc_period, steps, trigger)

let prop_workload_sound (w : Workloads.Spec.t) ~null_or_same =
  QCheck2.Test.make
    ~name:
      (Printf.sprintf "SATB invariant: %s%s" w.name
         (if null_or_same then " (+null-or-same)" else ""))
    ~count:12
    (QCheck2.Gen.int_range 1 10_000)
    (fun seed ->
      let quantum, gc_period, steps, trigger = params_of_seed seed in
      run_one w ~null_or_same ~seed ~quantum ~gc_period ~steps ~trigger = 0)

let tests =
  List.map QCheck_alcotest.to_alcotest
    (List.concat_map
       (fun w ->
         [ prop_workload_sound w ~null_or_same:false;
           prop_workload_sound w ~null_or_same:true ])
       Workloads.Registry.all)
