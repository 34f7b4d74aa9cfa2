(** E17 — execution-engine comparison: the direct-threaded compiled
    engine ({!Jrt.Exec}) vs the tree-walking interpreter across the
    Table 1 workloads, with an exhaustive equality check between the two
    engines' final states. *)

type row = {
  bench : string;
  steps : int;  (** instructions per run (identical under both engines) *)
  interp_steps_s : float;
  threaded_steps_s : float;
  speedup : float;
  equal : bool;  (** the exhaustive {!diff} found no mismatch *)
}

val diff :
  ?flight:Flight.entry list * Flight.entry list ->
  Jrt.Runner.report ->
  Jrt.Runner.report ->
  string option
(** Exhaustive comparison of two runs' final states: steps, cost and
    barrier units, every machine counter, dynamic store stats, per-site
    attribution, statics, the full heap graph (class, liveness and
    payload of every object ever allocated), GC summary, pacer stats and
    thread errors.  [?flight] additionally compares the two runs'
    flight-recorder event streams (GC phase transitions, pacer
    decisions, revocations, faults — every record, unfiltered); kind,
    order, fields and steps must all match exactly — the
    threaded engine's step source includes the slice's in-flight count
    ([Exec.inflight]), so its events carry the interpreter's steps even
    from inside fused blocks.  Snapshot each stream with
    [Flight.events ()] right after its run, before the next run resets
    the ring.  [None] means identical;
    [Some m] names every mismatching dimension.  Also used by the
    differential QCheck property. *)

val bench_quantum : int
val bench_gc_period : int
(** The documented coarse throughput cadence (see engines.ml); E18
    measures the recorder's overhead at the same cadence. *)

val measure : ?min_seconds:float -> unit -> row list
(** Run every Table 1 workload under both engines (SATB collector,
    default pacing), fail loudly if any pair of runs diverges, then
    measure steps/sec per engine by repeating the deterministic run
    until cumulative wall time reaches [min_seconds] (default 0.2s). *)

val to_json : row list -> Telemetry.json
(** The [engines] table of BENCH_engines.json; the gate floors each
    [speedup] at 3.0. *)

val render : row list -> string
val print : row list -> unit
