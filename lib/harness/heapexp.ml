(** E19 — the heap-state observatory: census/retention walkthrough on
    db, the six-workload barrier-float table, and the census overhead
    measurement behind the <3% gate.  See heapexp.mli. *)

type float_row = {
  bench : string;
  collector : string;
  cycles : int;
  float_objs : int;
  float_units : int;
  float_pct : float;
  trace_u : int;
  log_u : int;
  alloc_u : int;
  repair_u : int;
}

type overhead_row = {
  ov_bench : string;
  ov_steps : int;
  ov_cycles : int;
  on_steps_s : float;
  off_steps_s : float;
  overhead_pct : float;
}

(* ---- walkthrough --------------------------------------------------------- *)

(* What `satbelim heap --workload db` shows, produced in-process: the
   final-heap census, the dominator retention report, and the per-cycle
   float accounting under the SATB collector.  Fully deterministic. *)
let walkthrough () : string =
  let cw = Exp.compile Workloads.Db.t in
  let obs = Heapscope.Observatory.create () in
  let r =
    Exp.run
      ~gc:(Jrt.Runner.make_satb ())
      ~engine:`Interp
      ~observer:(Heapscope.Observatory.observe obs)
      cw
  in
  let m = r.Jrt.Runner.machine in
  String.concat "\n"
    [
      "final-heap allocation-site census (db under satb):";
      Heapscope.Observatory.render_census ~top:8
        (Heapscope.Census.of_heap m.Jrt.Interp.heap);
      "dominator retention:";
      Heapscope.Observatory.render_retainers ~top:8 m;
      "barrier-float accounting:";
      Heapscope.Observatory.render_float obs;
    ]

(* ---- the six-workload float table ---------------------------------------- *)

(* Float counts are pure simulation state — pinned to the interpreter
   engine (the threaded engine is state-identical anyway, E17) so the
   table is byte-deterministic and the gate can diff it exactly. *)
let measure_one (w : Workloads.Spec.t) : float_row list =
  let cw = Exp.compile w in
  List.map
    (fun coll ->
      let obs = Heapscope.Observatory.create () in
      ignore
        (Exp.run ~gc:(Jrt.Runner.make coll) ~engine:`Interp
           ~observer:(Heapscope.Observatory.observe obs)
           cw);
      let cycles = Heapscope.Observatory.cycles obs in
      let fo, fu = Heapscope.Observatory.float_totals obs in
      let live_u =
        List.fold_left
          (fun acc c -> acc + c.Heapscope.Observatory.cs_live_units)
          0 cycles
      in
      let ou = Heapscope.Observatory.origin_unit_totals obs in
      {
        bench = w.name;
        collector = Jrt.Runner.collector_name coll;
        cycles = List.length cycles;
        float_objs = fo;
        float_units = fu;
        float_pct =
          (if live_u = 0 then 0.0
           else 100.0 *. float_of_int fu /. float_of_int live_u);
        trace_u = ou.(Jrt.Heap.origin_trace);
        log_u = ou.(Jrt.Heap.origin_log);
        alloc_u = ou.(Jrt.Heap.origin_alloc);
        repair_u = ou.(Jrt.Heap.origin_repair);
      })
    Jrt.Runner.collectors

let measure () : float_row list =
  List.concat_map measure_one Workloads.Registry.table1

let to_json (rows : float_row list) : Telemetry.json =
  Telemetry.List
    (List.map
       (fun r ->
         Telemetry.Obj
           [
             ("bench", Str r.bench);
             ("collector", Str r.collector);
             ("cycles", Int r.cycles);
             ("float_objs", Int r.float_objs);
             ("float_units", Int r.float_units);
             ("float_pct", Float r.float_pct);
             ("trace_units", Int r.trace_u);
             ("log_units", Int r.log_u);
             ("alloc_units", Int r.alloc_u);
             ("repair_units", Int r.repair_u);
           ])
       rows)

(* ---- census overhead ------------------------------------------------------ *)

(* The ON arm is the always-on census telemetry path ([census_tick]:
   census + event + ring record, plus the armed verdict log) — the full
   oracle-sweep diagnostic is `satbelim heap`'s per-invocation cost,
   not a per-run tax, so it is not what the gate ceilings.

   The E18 differential estimator cannot resolve this effect: the hook
   runs inside the safepoint, so the arms must be compared on TOTAL
   loop time, whose run-to-run noise on these sub-millisecond runs is
   several times the true cost (a NO-OP observer reads anywhere from
   -5% to +19% on it).  Instead the hook is timed directly — per-run
   census seconds, summed inside the observer — and reported against
   the median loop time of interleaved observer-free runs.  What direct
   timing cannot see (the observer call indirection and the armed
   verdict log's accumulation inside marking) is indistinguishable from
   zero under the differential estimator, so the hook time is the
   measurable cost. *)
let measure_overhead_one ~min_seconds ~min_pairs (w : Workloads.Spec.t) :
    overhead_row =
  let cw = Exp.compile w in
  let ticks = ref 0 in
  let census_s = ref 0.0 in
  let timed on =
    census_s := 0.0;
    let observer =
      if on then
        Some
          (fun m ->
            incr ticks;
            let t0 = Telemetry.now_s () in
            Heapscope.Observatory.census_tick m;
            census_s := !census_s +. (Telemetry.now_s () -. t0))
      else None
    in
    let r =
      Exp.run
        ~gc:(Jrt.Runner.make_satb ())
        ~engine:`Threaded ~quantum:Engines.bench_quantum
        ~gc_period:Engines.bench_gc_period ?observer cw
    in
    (r, r.Jrt.Runner.loop_s, !census_s)
  in
  ticks := 0;
  let r0, _, _ = timed true in
  let steps = r0.Jrt.Runner.steps in
  let n_cycles = !ticks in
  let t_on = ref [] and t_off = ref [] and t_census = ref [] in
  let acc = ref 0.0 and n = ref 0 in
  while !acc < min_seconds || !n < min_pairs do
    let on, off, census =
      if !n mod 2 = 0 then
        let _, a, c = timed true in
        let _, b, _ = timed false in
        (a, b, c)
      else
        let _, b, _ = timed false in
        let _, a, c = timed true in
        (a, b, c)
    in
    acc := !acc +. on +. off;
    t_on := on :: !t_on;
    t_off := off :: !t_off;
    t_census := census :: !t_census;
    incr n
  done;
  let median l =
    let s = List.sort compare l in
    List.nth s (List.length s / 2)
  in
  let med_on = median !t_on
  and med_off = median !t_off
  and med_census = median !t_census in
  let overhead_pct =
    if med_off <= 0.0 then 0.0 else 100.0 *. med_census /. med_off
  in
  let per_sec t = if t <= 0.0 then 0.0 else float_of_int steps /. t in
  {
    ov_bench = w.name;
    ov_steps = steps;
    ov_cycles = n_cycles;
    on_steps_s = per_sec med_on;
    off_steps_s = per_sec med_off;
    overhead_pct;
  }

let measure_overhead ?(min_seconds = 0.6) ?(min_pairs = 50) () :
    overhead_row list =
  List.map
    (measure_overhead_one ~min_seconds ~min_pairs)
    Workloads.Registry.table1

let overhead_to_json (rows : overhead_row list) : Telemetry.json =
  Telemetry.List
    (List.map
       (fun r ->
         Telemetry.Obj
           [
             ("benchmark", Str r.ov_bench);
             ("steps", Int r.ov_steps);
             ("cycles", Int r.ov_cycles);
             ("off_steps_s", Float r.off_steps_s);
             ("on_steps_s", Float r.on_steps_s);
             ("overhead_pct", Float r.overhead_pct);
           ])
       rows)

(* ---- rendering ------------------------------------------------------------ *)

let render_float_table (rows : float_row list) : string =
  let body =
    List.map
      (fun r ->
        [
          r.bench;
          r.collector;
          string_of_int r.cycles;
          string_of_int r.float_objs;
          string_of_int r.float_units;
          Printf.sprintf "%.1f" r.float_pct;
          string_of_int r.trace_u;
          string_of_int r.log_u;
          string_of_int r.alloc_u;
          string_of_int r.repair_u;
        ])
      rows
  in
  Tablefmt.render
    ~header:
      [
        "benchmark";
        "collector";
        "cycles";
        "float objs";
        "float units";
        "float %";
        "trace_u";
        "log_u";
        "alloc_u";
        "repair_u";
      ]
    ~align:[ Tablefmt.L; L; R; R; R; R; R; R; R; R ]
    body

let render_overhead (rows : overhead_row list) : string =
  let body =
    List.map
      (fun r ->
        [
          r.ov_bench;
          string_of_int r.ov_steps;
          string_of_int r.ov_cycles;
          Printf.sprintf "%.0f" r.off_steps_s;
          Printf.sprintf "%.0f" r.on_steps_s;
          Printf.sprintf "%.2f" r.overhead_pct;
        ])
      rows
  in
  Tablefmt.render
    ~header:
      [
        "benchmark";
        "steps/run";
        "cycles/run";
        "observatory off steps/s";
        "observatory on steps/s";
        "overhead %";
      ]
    ~align:[ Tablefmt.L; R; R; R; R; R ]
    body

let print (rows : float_row list) (overhead : overhead_row list) =
  print_endline
    "observatory walkthrough (what `satbelim heap --workload db` reports):";
  print_endline (walkthrough ());
  print_endline
    "barrier float across the Table 1 workloads, per collector (float = \
     survivors the exact-reachability oracle does not reach, attributed \
     to the mark origin that kept them):";
  print_endline (render_float_table rows);
  print_endline
    "observatory overhead, threaded engine at the E17 bench cadence \
     (gated at <3%):";
  print_endline (render_overhead overhead)
