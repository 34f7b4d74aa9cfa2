(** E19 — the heap-state observatory: a census/retention walkthrough on
    db, barrier-float accounting across the Table 1 workloads under all
    four collectors, and the census-overhead measurement behind the <3%
    gate. *)

type float_row = {
  bench : string;
  collector : string;
  cycles : int;  (** completed GC cycles observed *)
  float_objs : int;  (** floating objects, summed across cycles *)
  float_units : int;
  float_pct : float;
      (** float units as a percentage of cumulative survivor units *)
  trace_u : int;  (** float units whose mark origin was the trace *)
  log_u : int;  (** ... an SATB/card/shade log entry *)
  alloc_u : int;  (** ... allocate-black *)
  repair_u : int;  (** ... revocation repair or retrace re-scan *)
}

type overhead_row = {
  ov_bench : string;
  ov_steps : int;  (** instructions per run *)
  ov_cycles : int;  (** observed cycles per run *)
  on_steps_s : float;  (** census telemetry armed ({!Heapscope.Observatory.census_tick}) *)
  off_steps_s : float;  (** observer absent (the default) *)
  overhead_pct : float;
      (** median per-run census-hook seconds over the median
          observer-free loop time *)
}

val walkthrough : unit -> string
(** Run db under SATB with the observatory armed and render what
    `satbelim heap --workload db` shows: the final-heap census, the
    dominator retention report and the per-cycle float accounting.
    Fully deterministic. *)

val measure : unit -> float_row list
(** The six-workload x four-collector float table, on the interpreter
    engine so counts are byte-deterministic. *)

val measure_overhead :
  ?min_seconds:float -> ?min_pairs:int -> unit -> overhead_row list
(** Cost of always-on census telemetry across the Table 1 workloads
    under the threaded engine at the E17 bench cadence.  The census
    hook runs inside the safepoint, where run-to-run loop-time noise
    swamps the E18 differential estimator on sub-millisecond runs, so
    the hook is timed directly: median per-run census seconds over the
    median loop time of interleaved observer-free runs. *)

val to_json : float_row list -> Telemetry.json
(** The [heap] table of BENCH_heap.json; the gate diffs [float_units]
    and [float_pct] per (bench, collector). *)

val overhead_to_json : overhead_row list -> Telemetry.json
(** The [heap_overhead] table of BENCH_heap.json; the gate ceilings
    [overhead_pct] at 3.0 absolute. *)

val render_float_table : float_row list -> string
val render_overhead : overhead_row list -> string

val print : float_row list -> overhead_row list -> unit
(** The walkthrough, which this runs, then both tables. *)
