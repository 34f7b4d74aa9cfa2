(** Shared plumbing for the experiments and the CLI: compile a workload at
    a given analysis configuration and run it under the instrumented
    runtime. *)

type compiled_workload = {
  workload : Workloads.Spec.t;
  compiled : Satb_core.Driver.compiled;
}

let compile ?(inline_limit = 100) ?(mode = Satb_core.Analysis.A)
    ?(null_or_same = false) ?(move_down = false) ?(swap = false)
    ?(summaries = false) (w : Workloads.Spec.t) : compiled_workload =
  let prog = Workloads.Spec.parse w in
  let conf =
    {
      Satb_core.Analysis.default_config with
      mode;
      null_or_same;
      move_down;
      swap;
      summaries;
    }
  in
  { workload = w; compiled = Satb_core.Driver.compile ~inline_limit ~conf prog }

let config ?(satb_mode = Jrt.Barrier_cost.Conditional) ?(use_policy = true)
    ?(guards = false) ?(revoke = true) ~(gc : Jrt.Runner.gc_choice)
    (cw : compiled_workload) : Jrt.Interp.config =
  (* The hybrid collector switches the runtime to the split-verdict
     barrier: both halves, and no tracing-state check. *)
  let hybrid = match gc with Jrt.Runner.Hybrid _ -> true | _ -> false in
  (* Guards are opt-in: several negative soundness tests deliberately
     run unsound policy/collector combinations to show the oracle
     catching them, which wired guards would (correctly) neutralize.
     Under [Hybrid] the verdicts carry each half's guards even with
     [~guards:false] (BENCH_hybrid.json and the gc-churn benchmark
     depend on it), so guard failures revoke there as well; only the
     justifications wait for [~guards].  Without the verdicts guard
     failures are still recorded when [~guards] asks for it, so the
     startup capability requests show. *)
  let wired = guards || (hybrid && use_policy) in
  let policy site : Jir.Types.verdict =
    let v = Satb_core.Driver.barrier cw.compiled site in
    let del_elide = use_policy && v.del_elide in
    let ins_elide = use_policy && hybrid && v.ins_elide in
    {
      del_elide;
      del_guards = (if wired && del_elide then v.del_guards else []);
      ins_elide;
      ins_guards = (if wired && ins_elide then v.ins_guards else []);
      ins_repair = ins_elide && v.ins_repair;
      check = (if hybrid || not del_elide then No_check else v.check);
      del_why = (if guards then v.del_why else Jir.Types.keep.del_why);
      ins_why = (if guards then v.ins_why else Jir.Types.keep.ins_why);
    }
  in
  {
    Jrt.Interp.default_config with
    policy;
    revoke = revoke && wired;
    satb_mode;
    barrier_flavor = (if hybrid then `Hybrid else `Satb);
  }

let policy_of (cw : compiled_workload) =
  (config ~gc:Jrt.Runner.No_gc cw).Jrt.Interp.policy

(** Session-wide default execution engine, so `bench --engine threaded`
    (and the CI both-engines tier-1 lever) can retarget every experiment
    without threading a parameter through each call site. *)
(* initial value honours SATB_ENGINE=threaded so CI can re-run the whole
   tier-1 suite on the compiled engine without touching any test *)
let default_engine : [ `Interp | `Threaded ] ref =
  ref
    (match Sys.getenv_opt "SATB_ENGINE" with
    | Some "threaded" -> `Threaded
    | Some _ | None -> `Interp)

let run ?(gc = Jrt.Runner.No_gc) ?satb_mode ?use_policy ?guards ?revoke ?chaos
    ?retrace_budget ?(fail_on_thread_error = true) ?(seed = 0) ?quantum
    ?gc_period ?engine ?observer (cw : compiled_workload) : Jrt.Runner.report =
  let engine = match engine with Some e -> e | None -> !default_engine in
  let cfg = config ?satb_mode ?use_policy ?guards ?revoke ~gc cw in
  let report =
    Jrt.Runner.run ~cfg ~gc ~engine ~seed ?quantum ?gc_period ?chaos
      ?retrace_budget ?observer cw.compiled.program ~entry:cw.workload.entry
  in
  (if fail_on_thread_error then
     match report.thread_errors with
     | [] -> ()
     | (tid, e) :: _ ->
         Fmt.failwith "workload %s: thread %d died: %s" cw.workload.name tid e);
  report
