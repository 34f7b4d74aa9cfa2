(** E15 — the Go-style hybrid write barrier: per-collector, per-half
    dynamic elision across the Table 1 workloads, and a chaos soundness
    sweep under the hybrid collector with guards and revocation on.
    See the implementation header for the full experimental setup. *)

type row = {
  bench : string;
  collector : string;
  stores : int;
  del_elided : int;  (** deletion-half elided executions *)
  del_paid : int;
  ins_elided : int;  (** insertion-half elided executions *)
  ins_paid : int;
  both_elided : int;  (** executions with both halves elided *)
  del_elide_pct : float;
  ins_elide_pct : float;
  both_elide_pct : float;
  cycles : int;
  violations : int;
}

type chaos_row = {
  c_plan : string;
  c_bench : string;
  c_violations : int;  (** must be 0: revocation repairs every plan *)
  c_revocations : int;
  c_revoked_sites : int;
  c_rescans : int;  (** remark-time repair re-scans *)
}

val measure : unit -> row list
(** The elision table: four collectors crossed with the six
    workloads. *)

val measure_chaos : ?seed:int -> unit -> chaos_row list
(** The soundness sweep: late-spawn, barrier-skip and class-load fault
    plans under the hybrid collector. *)

val to_json : row list -> Telemetry.json
(** The [hybrid] table of BENCH_hybrid.json, gated per half. *)

val chaos_to_json : chaos_row list -> Telemetry.json
(** The [hybrid_chaos] table of BENCH_hybrid.json. *)

val render : row list -> string
val render_chaos : chaos_row list -> string
val print : row list -> chaos_row list -> unit
