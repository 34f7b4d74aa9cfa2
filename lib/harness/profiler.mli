(** E14 — hot-site walkthrough: per-site barrier attribution on [db]
    under the retrace collector, comparing the plain §3 analysis against
    the full extension stack (null-or-same, move-down, swap, callee
    summaries) with guards wired.

    The point of the experiment is the profiler's view of {e where} the
    barrier budget goes: the baseline run pays full barriers inside
    [db]'s shell-sort swap loop; the full run elides them pairwise and
    the hot-site table shows the same sites flip from paid to elided,
    with the analysis provenance inlined.  Both profiles are self-checked
    against the interpreter counters ({!Profile.Attr.reconciles}). *)

type result = {
  workload : string;
  baseline : Profile.Attr.t;  (** plain mode-A analysis *)
  full : Profile.Attr.t;  (** + null-or-same, move-down, swap, summaries *)
  diff : Profile.Gate.outcome;  (** full vs the baseline *)
}

val measure : ?workload:Workloads.Spec.t -> unit -> result
(** Defaults to [db].  Fails if either profile does not reconcile with
    the interpreter's global counters. *)

val to_json : result -> Telemetry.json
(** The [profile] table of BENCH_profile.json: one
    {!Profile.Attr.summary_row} per variant. *)

val render : result -> string
