(** E1 — reproduction of the paper's Table 1 (dynamic analysis results).
    Absolute totals differ (synthetic workloads); the shape is what must
    match — see EXPERIMENTS.md. *)

type row = {
  name : string;
  dyn : Jrt.Interp.dyn_stats;
  paper : Workloads.Spec.paper_row option;
  analysis_seconds : float;  (** of the row's compile *)
  inline_seconds : float;
}

val measure : ?inline_limit:int -> Workloads.Spec.t -> row
(** Compile, run under SATB with the elision policy (failing on any
    marking violation), and collect the dynamic counters. *)

val rows : ?inline_limit:int -> unit -> row list
val render : row list -> string

val to_json : row list -> Telemetry.json
(** The [table1] table of BENCH_table1.json. *)
