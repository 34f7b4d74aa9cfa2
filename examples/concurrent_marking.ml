(* Concurrent marking end to end: run the jess workload under the SATB
   collector three ways.

   1. All barriers kept: the baseline.  The marker stays correct and the
      mutator logs every overwritten non-null pointer.
   2. Analysis-directed elision: barriers proven unnecessary are removed;
      the snapshot invariant still holds (fewer logged entries, same
      correctness) — this is the paper's whole point.
   3. A deliberately unsound policy that removes *every* barrier: the
      collector's oracle check now reports snapshot violations, showing
      that the invariant checking machinery really can catch a wrong
      elision decision.

   Run with: dune exec examples/concurrent_marking.exe *)

let run_jess ~policy_name ~policy =
  let cw = Harness.Exp.compile Workloads.Jess.t in
  let cfg = { Jrt.Interp.default_config with policy } in
  let report =
    Jrt.Runner.run ~cfg
      ~gc:(Jrt.Runner.make_satb ~pacing:(Jrt.Pacer.config_of_trigger 32)
        ~steps_per_increment:8 ())
      cw.compiled.program ~entry:Workloads.Jess.t.entry
  in
  match report.gc with
  | Some g ->
      Fmt.pr "%-22s cycles=%d logged-per-cycle=%a violations=%d@."
        policy_name g.cycles
        Fmt.(list ~sep:comma int)
        g.logged_or_dirtied g.total_violations
  | None -> ()

let () =
  let cw = Harness.Exp.compile Workloads.Jess.t in
  run_jess ~policy_name:"keep-all" ~policy:(fun _ -> Jir.Types.keep);
  run_jess ~policy_name:"analysis-directed" ~policy:(Harness.Exp.policy_of cw);
  Fmt.pr "@.Now removing EVERY barrier (unsound for SATB):@.";
  run_jess ~policy_name:"elide-all (unsound)" ~policy:(fun _ ->
      { Jir.Types.keep with del_elide = true });
  Fmt.pr
    "@.The violation count above is the oracle catching live snapshot@.\
     objects that concurrent marking missed because their last pointer@.\
     was overwritten without being logged.@."
