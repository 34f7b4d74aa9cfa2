(** E2 — the paper's Table 2: jbb end-to-end barrier cost under
    no-barrier / always-log / always-log-elim modes (§4.5), via the RISC
    cost model. *)

type row = { mode : string; cost_units : int; relative : float }

val paper : (string * float) list
val measure : ?workload:Workloads.Spec.t -> unit -> row list
val render : row list -> string

val to_json : row list -> Telemetry.json
(** The [table2] table of BENCH_table2.json. *)
