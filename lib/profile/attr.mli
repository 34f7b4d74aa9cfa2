(** Per-site barrier attribution: turns a run report into a profile —
    one row per static store site with dynamic execution counts, the
    elided-vs-paid split, modelled barrier cost and revocations — plus
    run-level pause percentiles and the MMU curve.

    The profile reconciles {e exactly} with the interpreter's global
    counters: per-site paid/elided sums plus the external (chaos) rows
    equal [barriers_executed]/[elided_barrier_execs], and per-site
    [barrier_units] sum to the machine total.  {!reconciles} checks
    this; the CLI runs it as a self-check on every [profile] run. *)

type site_row = {
  r_site : string;  (** ["Class.method\@pc"] *)
  r_kind : string;  (** ["field"], ["array"] or ["static"] *)
  r_elided : bool;  (** final elision state (after any revocation) *)
  r_execs : int;
  r_elided_execs : int;
  r_paid_execs : int;
  r_del_elided : bool;  (** hybrid: deletion half elided (after revocation) *)
  r_ins_elided : bool;  (** hybrid: insertion half elided *)
  r_del_elided_execs : int;
      (** per-half execution counts; all zero outside the hybrid flavor,
          where [elided_execs] counts both-halves-elided executions and
          [paid_execs] those where at least one half ran *)
  r_del_paid_execs : int;
  r_ins_elided_execs : int;
  r_ins_paid_execs : int;
  r_barrier_units : int;
  r_revocations : int;
  r_guards : string list;
  r_why : string option;  (** analysis provenance, when [--explain]-able *)
}

type totals = {
  t_execs : int;
  t_elided_execs : int;
  t_paid_execs : int;
  t_del_elided_execs : int;  (** per-half sums; zero outside hybrid runs *)
  t_del_paid_execs : int;
  t_ins_elided_execs : int;
  t_ins_paid_execs : int;
  t_barrier_units : int;
  t_external_paid : int;  (** chaos stores that ran a barrier (siteless) *)
  t_external_elided : int;  (** chaos stores through guarded elisions *)
  t_revocation_events : int;
  t_revoked_sites : int;
}

type t = {
  p_workload : string;
  p_gc : string;
  p_steps : int;
  p_cycles : int;
  p_violations : int;
  p_sites : site_row list;  (** sorted by site id *)
  p_totals : totals;
  p_pauses : Stats.dist;
  p_mmu : (int * float) list;  (** (window, mmu), ascending windows *)
  p_utilization : float;
}

val of_report :
  workload:string ->
  gc:string ->
  Jrt.Runner.report ->
  t
(** Per-site rows from the run's site records; each row's [r_why] is
    the justification its verdict carries (wired by
    [Harness.Exp.config ~guards:true]). *)

val reconciles : t -> Jrt.Runner.report -> (unit, string) result
(** Check the profile's sums against the interpreter counters; the
    error names the first mismatching quantity. *)

val hot : ?top:int -> t -> site_row list
(** Top-[top] (default 10) sites by modelled cost; ties broken by paid
    executions (descending) then site id (ascending) so the order is
    deterministic. *)

val summary_row : ids:(string * Telemetry.json) list -> t -> Telemetry.json
(** The row the regression gate reads ({!Gate}'s [profile] table):
    [ids] (workload and gc for the CLI, workload and variant for E14),
    then [elision_pct] — the dynamic elision rate in percent over all
    reference stores, external ones included — and, when the run carries
    hybrid per-half data, [del_elision_pct]/[ins_elision_pct]; then
    [barrier_units], [units_per_kstep] (modelled barrier cost per 1000
    mutator instructions), [pause_p99], [pause_max], [utilization] and
    [violations]. *)

val to_json : t -> Telemetry.json
(** A BENCH table file: the [profile] table holds the one
    {!summary_row} (ids workload and gc), beside the run's full record —
    sites, totals, pauses, MMU curve — and {!Gate.bench_schema_version}.
    Deterministic: the record's keys in sorted order, sites sorted by
    id, so equal profiles serialize byte-identically. *)

val render : ?top:int -> t -> string
(** Human-readable report: run header, pause percentiles, MMU curve and
    the hot-site table, with provenance inlined under each of the top
    offenders that has one. *)
