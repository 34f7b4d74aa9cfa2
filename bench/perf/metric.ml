(* The benchmark's metric dictionary: every end-to-end and per-layer
   metric with its unit and direction, the bound an end-to-end metric may
   worsen by, and for each per-layer metric the end-to-end metric and
   workload it should move.  BENCHMARK.json mirrors the [listed] ones;
   the unit test keeps the two in step. *)

type better = Lower | Higher

let string_of_better = function Lower -> "lower" | Higher -> "higher"

type e2e = {
  name : string;
  unit : string;
  better : better;
  bound : float;
      (** share of the baseline median the metric may worsen by; 0 means
          the value must not worsen at all *)
  listed : bool;
      (** carried on the result line and listed in BENCHMARK.json: defined
          and never 0 on every workload, and steady enough between runs to
          gate on *)
}

let e2e =
  [
    {
      name = "setup_s";
      unit = "s";
      better = Lower;
      bound = 0.25;
      listed = true;
    };
    {
      name = "requests_per_s";
      unit = "req/s";
      better = Higher;
      bound = 0.25;
      listed = true;
    };
    {
      name = "steps_per_s";
      unit = "instr/s";
      better = Higher;
      bound = 0.25;
      listed = true;
    };
    {
      name = "latency_ms_p50";
      unit = "ms";
      better = Lower;
      bound = 0.25;
      listed = true;
    };
    {
      name = "latency_ms_p99";
      unit = "ms";
      better = Lower;
      bound = 0.10;
      listed = false;
    };
    {
      name = "remark_work_p99";
      unit = "objects";
      better = Lower;
      bound = 0.0;
      listed = false;
    };
    {
      name = "dyn_elim_pct";
      unit = "%";
      better = Higher;
      bound = 0.0;
      listed = false;
    };
    {
      name = "static_elim_pct";
      unit = "%";
      better = Higher;
      bound = 0.0;
      listed = false;
    };
    {
      name = "peak_rss_mb";
      unit = "MiB";
      better = Lower;
      bound = 0.10;
      listed = true;
    };
    {
      name = "error_rate";
      unit = "fraction";
      better = Lower;
      bound = 0.0;
      listed = false;
    };
  ]

type layer = {
  l_name : string;
  l_unit : string;
  l_better : better;
  moves : string;  (** the end-to-end metric and workload it should move *)
  everywhere : bool;
      (** measured on every workload, so listed in BENCHMARK.json *)
}

let layer ?(everywhere = true) l_name l_unit l_better moves =
  { l_name; l_unit; l_better; moves; everywhere }

let collectors = [ "satb"; "incr"; "retrace"; "hybrid" ]

let per_layer =
  let compile_lat = "latency_ms_* on jit-compile" in
  let gc_lat = "latency_ms_* and remark_work_p99 on gc-churn" in
  [
    layer "jir.parse_us" "us" Lower (compile_lat ^ ", setup_s elsewhere");
    layer "jir.verify_us" "us" Lower (compile_lat ^ ", setup_s elsewhere");
    layer "core.inline_us" "us" Lower compile_lat;
    layer ~everywhere:false "core.summary_us" "us" Lower compile_lat;
    layer "core.analysis_us" "us" Lower compile_lat;
    layer "core.driver_self_us" "us" Lower compile_lat;
    layer "core.alloc_kb" "KiB" Lower compile_lat;
    layer "core.inlined_instrs" "count" Lower compile_lat;
    layer "core.block_visits" "count" Lower compile_lat;
    layer "core.summary_havocs" "count" Lower compile_lat;
    layer "core.sites" "count" Lower "static_elim_pct and dyn_elim_pct";
    layer "core.elided_sites" "count" Higher "static_elim_pct and dyn_elim_pct";
    layer "runtime.run_setup_us" "us" Lower
      "latency_ms_p50 on mutator and compute";
    layer "runtime.mutator_us" "us" Lower "steps_per_s on mutator and compute";
    layer "runtime.ns_per_step" "ns" Lower "steps_per_s on mutator and compute";
    layer "runtime.safepoint_us" "us" Lower "latency_ms_* on gc-churn";
    layer "runtime.alloc_kb" "KiB" Lower "peak_rss_mb and latency_ms_p99";
    layer "exec.create_us" "us" Lower
      "runtime.run_setup_us, then latency_ms_p50 on mutator";
    layer "exec.compiled_methods" "count" Lower
      "runtime.run_setup_us, then latency_ms_p50 on mutator";
  ]
  @ List.concat_map
      (fun c ->
        [
          layer ("gc." ^ c ^ ".safepoint_us") "us" Lower gc_lat;
          layer ("gc." ^ c ^ ".cycles") "count" Lower gc_lat;
          layer ("gc." ^ c ^ ".mark_increments") "count" Lower gc_lat;
          layer ("gc." ^ c ^ ".logged") "count" Lower gc_lat;
          layer ("gc." ^ c ^ ".remark_work_p99") "objects" Lower gc_lat;
        ])
      collectors
  @ [
      layer "gc.retrace.retraced" "count" Lower gc_lat;
      layer "gc.none.safepoint_us" "us" Lower gc_lat;
      layer "pacer.cycles" "count" Lower "remark_work_p99 on gc-churn";
      layer "pacer.assists" "count" Lower "remark_work_p99 on gc-churn";
      layer "pacer.degraded_cycles" "count" Lower "remark_work_p99 on gc-churn";
      layer "barrier.paid_execs" "count" Lower "dyn_elim_pct";
      layer "barrier.elided_execs" "count" Higher "dyn_elim_pct";
      layer "barrier.model_units" "units" Lower "dyn_elim_pct";
      layer "barrier.keep_all_delta_us" "us" Higher
        "latency_ms_p50 on mutator, once it exceeds its spread";
      layer "barrier.keep_all_spread_us" "us" Lower
        "the resolution of barrier.keep_all_delta_us";
      layer "barrier.model_saving_pct" "%" Higher
        "latency_ms_p50 on mutator, once measured_saving_pct exceeds its \
         spread";
      layer "barrier.measured_saving_pct" "%" Higher
        "latency_ms_p50 on mutator, once it exceeds its spread";
      layer "flight.events" "count" Lower "latency_ms_p50 on gc-churn";
      layer "flight.on_off_delta_us" "us" Lower "latency_ms_p50 on gc-churn";
      layer "trace.layer_sum_ratio" "ratio" Higher
        "none: the layers' share of the request they explain";
      layer "trace.overhead_pct" "%" Lower "none: the traced run's own cost";
    ]

(* ---- comparing two sets of runs -------------------------------------- *)

type verdict = Ok | Worse | Unresolved

let string_of_verdict = function
  | Ok -> "ok"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* Is [b] worse than [a] by more than the bound? *)
let worse_by (m : e2e) ~(a : float) ~(b : float) : bool =
  match m.better with
  | Lower -> b > a *. (1.0 +. m.bound)
  | Higher -> b < a *. (1.0 -. m.bound)

let better_than (m : e2e) (x : float) (y : float) : bool =
  match m.better with Lower -> x < y | Higher -> x > y

(* [a] is the baseline set of runs, [b] the candidate.  A spread wider
   than the bound on either side leaves the comparison unresolved, unless
   every run of [b] reads better than every run of [a]. *)
let verdict (m : e2e) (a : float list) (b : float list) : verdict =
  let all_better =
    List.for_all (fun y -> List.for_all (fun x -> better_than m y x) a) b
  in
  if Float.max (Pstats.spread a) (Pstats.spread b) > m.bound && not all_better
  then Unresolved
  else if worse_by m ~a:(Pstats.median_f a) ~b:(Pstats.median_f b) then Worse
  else Ok
