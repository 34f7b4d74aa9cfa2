(** E5 — pause distribution and mutator utilization across all three
    collectors under equal concurrent budgets (the paper's §1
    motivation).

    Each benchmark runs under SATB (analysis-directed elision),
    incremental update (every barrier kept — pre-null elision is
    SATB-specific) and the retrace collector (swap + move-down
    elision).  Instead of the old max-only view, each run reports the
    full pause distribution (p50/p90/p99/max), MMU at a 10% window and
    overall mutator utilization, via the shared [Profile.Stats] code. *)

type coll = {
  collector : string;  (** ["satb"], ["incr"] or ["retrace"] *)
  cycles : int;
  pauses : Profile.Stats.dist;  (** final-pause work distribution *)
  mmu_10 : float;  (** MMU at a window of 10% of the run *)
  utilization : float;
}

type row = {
  bench : string;
  collectors : coll list;  (** satb, incr, retrace — in that order *)
  ratio : float;  (** incr / satb max pause work (the paper's claim) *)
}

val find : row -> string -> coll
(** The named collector's measurement; raises [Not_found] otherwise. *)

val measure_one : Workloads.Spec.t -> row
(** Every collector cycles every 16 allocations and marks 16 steps per
    increment. *)

val measure : unit -> row list
(** All Table-1 workloads. *)

val to_json : row list -> Telemetry.json
(** The [pause] table of BENCH_pause.json and the regression gate: one
    row per benchmark and collector. *)

val render : row list -> string
