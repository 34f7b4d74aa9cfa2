(** Shared plumbing for the experiments and the CLI: compile a workload at
    a given analysis configuration and run it under the instrumented
    runtime.  {!config} is the one place where a compiled program and a
    collector choice become a run configuration; [satbelim run],
    [profile] and [heap] run through {!run} like every experiment. *)

type compiled_workload = {
  workload : Workloads.Spec.t;
  compiled : Satb_core.Driver.compiled;
}

val compile :
  ?inline_limit:int ->
  ?mode:Satb_core.Analysis.mode ->
  ?null_or_same:bool ->
  ?move_down:bool ->
  ?swap:bool ->
  ?summaries:bool ->
  Workloads.Spec.t ->
  compiled_workload

val config :
  ?satb_mode:Jrt.Barrier_cost.satb_mode ->
  ?use_policy:bool ->
  ?guards:bool ->
  ?revoke:bool ->
  gc:Jrt.Runner.gc_choice ->
  compiled_workload ->
  Jrt.Interp.config
(** The run configuration for [gc] from the verdict records the driver
    built ({!Satb_core.Driver.barrier}): one lookup per site, masked for
    the collector.  Every collector but [Hybrid] gets the deletion half
    with its tracing-state check (swap pairs); [Hybrid] gets the
    split-verdict barrier flavour with both halves and no check.
    [use_policy:false] keeps every barrier.  [guards] (default off — the
    negative soundness tests depend on unguarded runs) wires each half's
    guards and justification, so assumption failures revoke dependent
    elisions; without the verdicts guard failures are still recorded.
    Under [Hybrid] the verdicts carry their guards even without
    [guards].  [revoke:false] keeps the guards wired but ignores their
    failures. *)

val policy_of : compiled_workload -> Jir.Types.site -> Jir.Types.verdict
(** The unguarded verdicts [config ~guards:false] wires for every
    collector but [Hybrid]: the analysis's deletion verdict and
    tracing-state check, no guards, no justification. *)

val default_engine : [ `Interp | `Threaded ] ref
(** Session-wide default for {!run}'s [?engine] (initially [`Interp],
    or [`Threaded] when the [SATB_ENGINE=threaded] environment variable
    is set); `bench --engine threaded` flips it so every experiment
    re-runs on the compiled engine without per-call plumbing, and CI
    uses the environment variable to re-run the whole tier-1 suite on
    the compiled engine. *)

val run :
  ?gc:Jrt.Runner.gc_choice ->
  ?satb_mode:Jrt.Barrier_cost.satb_mode ->
  ?use_policy:bool ->
  ?guards:bool ->
  ?revoke:bool ->
  ?chaos:Jrt.Chaos.t ->
  ?retrace_budget:int ->
  ?fail_on_thread_error:bool ->
  ?seed:int ->
  ?quantum:int ->
  ?gc_period:int ->
  ?engine:[ `Interp | `Threaded ] ->
  ?observer:(Jrt.Interp.t -> unit) ->
  compiled_workload ->
  Jrt.Runner.report
(** {!config} plus {!Jrt.Runner.run} from the workload's entry; fails on
    any thread error unless [fail_on_thread_error:false] (chaos damage
    may legitimately kill workload threads).  [engine] defaults to
    {!default_engine}.  [observer] is the heap observatory's cycle-end
    hook, forwarded to {!Jrt.Runner.run}. *)
