(** E12 — interprocedural callee summaries vs the inline limit: the
    Figure 2 sweep re-run with summaries on and off, plus the
    closed-world chaos sweep (class-load faults must revoke
    summary-dependent elisions, never break the snapshot). *)

type point = {
  bench : string;
  limit : int;
  static_off : int;  (** elided sites, blanket Invoke havoc *)
  static_on : int;  (** elided sites, callee summaries consulted *)
  elim_off : float;  (** dynamic elimination %, havoc *)
  elim_on : float;  (** dynamic elimination %, summaries *)
  sum_methods : int;  (** methods summarized *)
  sum_havoced : int;  (** summaries widened to havoc *)
}

type chaos_row = {
  c_bench : string;
  c_plan : string;
  c_seed : int;
  c_violations : int;  (** snapshot-oracle violations; must be 0 *)
  c_revocations : int;  (** assumptions revoked at runtime *)
  c_revoked_sites : int;  (** sites patched back to full barriers *)
  c_class_loads : int;  (** chaos class-load announcements *)
}

val limits : int list

val measure : unit -> point list
(** The inline-limit sweep, summaries off vs on, over the Table 1
    workloads.  Summaries may only add elisions: [static_on >=
    static_off] on every point. *)

val measure_chaos : ?seeds:int list -> unit -> chaos_row list
(** Class-load (and mixed) fault plans against summary-compiled
    workloads at inline limit 0 with guards wired: the [Closed_world]
    revocation must keep every run violation-free. *)

val to_json : point list -> Telemetry.json
(** The [fig2_summaries] table of BENCH_fig2.json. *)

val render : point list -> string
val render_chaos : chaos_row list -> string

val print : point list -> unit
(** The sweep's table and its limit-0 line, then the chaos sweep, which
    this measures. *)
