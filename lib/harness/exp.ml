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

(** Barrier policy from the analysis verdicts. *)
let policy_of (cw : compiled_workload) : Jrt.Interp.barrier_policy =
 fun c m pc -> not (Satb_core.Driver.needs_barrier cw.compiled (key c m pc))

(** Tracing-state-check sites from the analysis verdicts (swap pairs). *)
let retrace_policy_of (cw : compiled_workload) : Jrt.Interp.retrace_policy =
 fun c m pc ->
  match Satb_core.Driver.retrace_check cw.compiled (key c m pc) with
  | `Open -> Jrt.Interp.Check_open
  | `Close -> Jrt.Interp.Check_close
  | `None -> Jrt.Interp.No_check

let assumption_to_runtime :
    Satb_core.Driver.assumption -> Jrt.Interp.assumption = function
  | Satb_core.Driver.Single_mutator -> Jrt.Interp.Single_mutator
  | Satb_core.Driver.Retrace_collector -> Jrt.Interp.Retrace_collector
  | Satb_core.Driver.Descending_scan -> Jrt.Interp.Descending_scan
  | Satb_core.Driver.Mode_a -> Jrt.Interp.Mode_a
  | Satb_core.Driver.Closed_world -> Jrt.Interp.Closed_world

(** The per-site guard table from the compiler's assumption metadata. *)
let guard_policy_of (cw : compiled_workload) : Jrt.Interp.guard_policy =
 fun c m pc ->
  List.map assumption_to_runtime
    (Satb_core.Driver.site_assumptions cw.compiled (key c m pc))

(** Per-site split verdicts for the hybrid (deletion + insertion)
    barrier, from the compiler's half-verdict tables.  Each half carries
    its own guard set so revocation can restore one half while the other
    stays elided. *)
let half_policy_of (cw : compiled_workload) : Jrt.Interp.half_policy =
 fun c m pc ->
  let key = key c m pc in
  match Satb_core.Driver.hybrid_verdict cw.compiled key with
  | `Keep -> Jrt.Interp.keep_both
  | (`Elide_deletion | `Elide_insertion | `Elide_both) as hv ->
      let del = hv = `Elide_deletion || hv = `Elide_both in
      let ins = hv = `Elide_insertion || hv = `Elide_both in
      {
        Jrt.Interp.hs_del_elide = del;
        hs_ins_elide = ins;
        hs_ins_repair =
          ins && Satb_core.Driver.ins_repair_needed cw.compiled key;
        hs_del_guards =
          (if del then
             List.map assumption_to_runtime
               (Satb_core.Driver.site_assumptions cw.compiled key)
           else []);
        hs_ins_guards =
          (if ins then
             List.map assumption_to_runtime
               (Satb_core.Driver.ins_site_assumptions cw.compiled key)
           else []);
      }

(** Elision provenance, so runtime revocation events can name the
    original justification of each site they patch. *)
let explain_policy_of (cw : compiled_workload) : Jrt.Interp.explain_policy =
 fun c m pc -> Satb_core.Driver.justification cw.compiled (key c m pc)

let config ?(satb_mode = Jrt.Barrier_cost.Conditional) ?(use_policy = true)
    ?(guards = false) ?(revoke = true) ~(gc : Jrt.Runner.gc_choice)
    (cw : compiled_workload) : Jrt.Interp.config =
  (* The hybrid collector switches the interpreter to the split-verdict
     barrier; the half policy carries each half's guards itself. *)
  let hybrid = match gc with Jrt.Runner.Hybrid _ -> true | _ -> false in
  {
    Jrt.Interp.default_config with
    policy = (if use_policy then policy_of cw else Jrt.Interp.keep_all_policy);
    retrace =
      (if use_policy then retrace_policy_of cw
       else Jrt.Interp.no_retrace_checks);
    satb_mode;
    barrier_flavor =
      (if hybrid then `Hybrid else Jrt.Interp.default_config.barrier_flavor);
    halves =
      (if hybrid && use_policy then half_policy_of cw
       else Jrt.Interp.no_halves);
    (* Guards are opt-in: several negative soundness tests deliberately
       run unsound policy/collector combinations to show the oracle
       catching them, which wired guards would (correctly) neutralize.
       Without the verdicts the table is wired but empty: still not
       [no_guards], so the startup capability requests are recorded. *)
    guards =
      (if not guards then Jrt.Interp.no_guards
       else if use_policy then guard_policy_of cw
       else fun _ _ _ -> []);
    explain = (if guards then explain_policy_of cw else Jrt.Interp.no_explain);
    revoke;
  }

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
