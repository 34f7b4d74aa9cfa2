(** E16 — the pacing-controller sweep: fixed triggers, heap-growth
    goals, soft limits (degrade-don't-die) and MMU-driven auto-tuning
    across the Table 1 workloads and all four collectors; plus a chaos
    sub-sweep injecting allocation spikes and memory-pressure ramps on
    top of the soft limit.  BENCH_pacing.json holds the three tables the
    bench gate checks: [pacing], [pacing_summary] and [pacing_chaos]. *)

type policy = { p_name : string; p_config : Jrt.Pacer.config }

val fixed : int -> policy
val goal : float -> policy
val auto : policy
val soft_of : limit:int -> policy

val fixed_policies : policy list
(** The fixed-trigger rows auto mode is judged against. *)

type row = {
  bench : string;
  collector : string;
  policy : string;
  stores : int;
  elide_pct : float;
  cycles : int;
  degraded_cycles : int;
  assists : int;
  p50 : int;
  p99 : int;
  max_pause : int;
  mmu_10 : float;
  max_live : int;  (** peak live heap units the pacer observed *)
  violations : int;
  hard_stops : int;  (** 0 or 1; every sweep row must be 0 *)
  pauses : int list;  (** raw pause works, for the summary pooling *)
}

type chaos_row = {
  c_plan : string;
  c_bench : string;
  c_collector : string;
  c_violations : int;
  c_degraded_cycles : int;
  c_injected : int;  (** ballast objects the fault placed *)
  c_hard_stops : int;
}

type summary_row = {
  s_bench : string;
  s_best_fixed : string;  (** name of the winning fixed policy *)
  s_best_fixed_p99 : int;
  s_auto_p99 : int;
  s_auto_win : bool;
}

val probe_peak : coll:Jrt.Runner.collector -> Exp.compiled_workload -> int
(** Peak live units of a policy-free run — the yardstick the [soft]
    rows derive their limit from. *)

val measure : unit -> row list
(** The full sweep: 6 workloads x 4 collectors x 7 policies. *)

val measure_chaos : ?seed:int -> unit -> chaos_row list
(** Allocation-fault sub-sweep on top of the soft-limit policy. *)

val summarize : row list -> summary_row list
(** Pool each bench's pauses across collectors; compare auto's p99 to
    the best fixed trigger's. *)

val to_json : row list -> Telemetry.json
val chaos_to_json : chaos_row list -> Telemetry.json

val summary_to_json : summary_row list -> Telemetry.json
(** The summary rows, then a TOTAL row carrying [auto_losses] for the
    gate. *)

val render : row list -> string
val render_chaos : chaos_row list -> string
val render_summary : summary_row list -> string
val print : row list -> summary_row list -> chaos_row list -> unit
