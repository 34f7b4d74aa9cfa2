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

let key c m pc = { Satb_core.Driver.sk_class = c; sk_method = m; sk_pc = pc }

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
     justification waits for [~guards].  Without the verdicts guard
     failures are still recorded when [~guards] asks for it, so the
     startup capability requests show. *)
  let wired = guards || (hybrid && use_policy) in
  let c = cw.compiled in
  let policy cls meth pc : Jrt.Interp.verdict =
    let k = key cls meth pc in
    let del_elide = use_policy && not (Satb_core.Driver.needs_barrier c k) in
    let ins_elide =
      use_policy && hybrid
      &&
      match Satb_core.Driver.hybrid_verdict c k with
      | `Elide_insertion | `Elide_both -> true
      | `Keep | `Elide_deletion -> false
    in
    {
      del_elide;
      del_guards =
        (if wired && del_elide then Satb_core.Driver.site_assumptions c k
         else []);
      ins_elide;
      ins_guards =
        (if wired && ins_elide then Satb_core.Driver.ins_site_assumptions c k
         else []);
      ins_repair = ins_elide && Satb_core.Driver.ins_repair_needed c k;
      check =
        (if hybrid || not del_elide then Jrt.Interp.No_check
         else
           match Satb_core.Driver.retrace_check c k with
           | `Open -> Jrt.Interp.Check_open
           | `Close -> Jrt.Interp.Check_close
           | `None -> Jrt.Interp.No_check);
      why =
        (if guards then lazy (Satb_core.Driver.justification c k)
         else Jrt.Interp.keep.why);
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
