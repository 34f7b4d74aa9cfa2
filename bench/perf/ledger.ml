(* The traced run's per-layer ledger: the probes that measure layers no
   single call separates, the self times and counts recorded with the
   spans, and every per-layer metric of Metric.per_layer. *)

open Perf_lib
open Requests

type plan = {
  per_kind : int;
  setups : int;  (** set-ups sampled during the untraced loop *)
  sweep_reps : int;  (** runs per (program, collector) the requests lack *)
  pairs : int;  (** interleaved A/B pairs per kind *)
  exec_reps : int;
}

let full_plan per_kind =
  { per_kind; setups = 10; sweep_reps = 20; pairs = 40; exec_reps = 50 }

let smoke_plan =
  { per_kind = 1; setups = 1; sweep_reps = 1; pairs = 2; exec_reps = 1 }

(* ---- probes ----------------------------------------------------------- *)

type probes = {
  runs : int;
  failed : int;
  faults : string list;  (** the first few *)
  keep_vs_verdicts : (int * int) list;  (** mutator ns *)
  keep_cost : int;  (** model cost units, summed over the pairs *)
  verdicts_cost : int;
  flight_on_off : (int * int) list;  (** loop ns *)
  flight_events : int list;
  exec_create : (string * int) list;  (** program, ns *)
  exec_methods : int list;
  traced_untraced : (int * int) list;  (** request ns *)
}

(* Run [a] and [b] back to back, alternating which goes first (E18's
   estimator: drift and warmth hit both arms alike). *)
let pair i a b =
  if i mod 2 = 0 then
    let x = a () in
    (x, b ())
  else
    let y = b () in
    (a (), y)

let group_by (key : 'a -> 'k) (xs : 'a list) : ('k * 'a list) list =
  let groups = Hashtbl.create 64 in
  List.iter
    (fun x ->
      let k = key x in
      Hashtbl.replace groups k
        (x :: Option.value (Hashtbl.find_opt groups k) ~default:[]))
    xs;
  Hashtbl.fold (fun k g acc -> (k, g) :: acc) groups []

(* each program's first kind, in order *)
let programs (ps : prepared array) : prepared list =
  Array.fold_left
    (fun acc p ->
      if List.exists (fun q -> q.k.spec.name = p.k.spec.name) acc then acc
      else acc @ [ p ])
    [] ps

(* Collectors the requests do not run, and no collector at all; on
   jit-compile, whose requests run nothing, all of them.  The sweep runs
   them as gc-churn does, at the runner's default cadence: at E17's
   coarse one, mtrt under incr with the SATB verdicts shows oracle
   violations (see README.md), and no probe may fail. *)
let swept (w : workload) =
  let used =
    match w.request with
    | Run -> List.map (fun (k : kind) -> k.collector) w.kinds
    | Compile -> []
  in
  List.filter (fun c -> not (List.mem c used)) ("none" :: Metric.collectors)

let run_probes ~plan ~seed (w : workload) (ps : prepared array) : probes =
  let runs = ref 0 and failed = ref 0 and faults = ref [] in
  let count fault =
    incr runs;
    Option.iter
      (fun f ->
        incr failed;
        if List.length !faults < 5 then faults := f :: !faults)
      fault
  in
  let checked (k : kind) name r =
    count (Option.map (Printf.sprintf "%s %s: %s" name k.label) (run_fault r));
    r
  in
  let span (k : kind) name f =
    Spans.call (ctx_of Spans.Pairs ~req:(-1) k) ~parent:0 name (fun _ -> f ())
  in
  let rseed i = seed + (i mod seeds_per_kind) in
  (* jit-compile's probes run its programs as the mutator workload does *)
  let probe_ps =
    match w.request with
    | Run -> ps
    | Compile ->
        Array.of_list (List.map (prepare_kind ~trace:false) mutator_kinds)
  in
  for r = 0 to plan.sweep_reps - 1 do
    List.iter
      (fun p ->
        List.iter
          (fun c ->
            let quantum, gc_period = default_cadence in
            let label = p.k.spec.name ^ "/" ^ c in
            let k = { p.k with collector = c; label; quantum; gc_period } in
            let ctx = ctx_of Spans.Sweep ~req:(-1) k in
            let p = { p with k; gc = gc_of c } in
            ignore
              (checked k "sweep" (traced_run ctx ~parent:0 p ~rseed:(rseed r))))
          (swept w))
      (programs probe_ps)
  done;
  let keep_vs_verdicts = ref [] and keep_cost = ref 0 in
  let verdicts_cost = ref 0 in
  let flight_on_off = ref [] and flight_events = ref [] in
  for i = 0 to plan.pairs - 1 do
    Array.iteri
      (fun ki p ->
        let rseed = rseed i in
        let arm name use_policy () =
          checked p.k name
            (span p.k ("probe.barrier." ^ name) (fun () ->
                 run ~use_policy p ~rseed))
        in
        let keep, verdicts =
          pair (i + ki) (arm "keep_all" false) (arm "verdicts" true)
        in
        let mutator (r : Jrt.Runner.report) =
          Pstats.ns_of_s (r.loop_s -. r.gc_s)
        in
        keep_vs_verdicts :=
          (mutator keep, mutator verdicts) :: !keep_vs_verdicts;
        keep_cost := !keep_cost + keep.cost_units;
        verdicts_cost := !verdicts_cost + verdicts.cost_units;
        let recorder on () =
          let name = if on then "probe.flight.on" else "probe.flight.off" in
          Flight.set_enabled on;
          Fun.protect
            ~finally:(fun () -> Flight.set_enabled true)
            (fun () ->
              let r =
                checked p.k name (span p.k name (fun () -> run p ~rseed))
              in
              (Pstats.ns_of_s r.loop_s, Flight.recorded ()))
        in
        let (on, events), (off, _) =
          pair (i + ki) (recorder true) (recorder false)
        in
        flight_on_off := (on, off) :: !flight_on_off;
        flight_events := events :: !flight_events)
      probe_ps
  done;
  (* Interp.create + spawn_thread + Exec.create on a fresh machine.  The
     first machine of each program then runs to completion, without a
     collector, to count the methods the engine compiles. *)
  let exec_create = ref [] and exec_methods = ref [] in
  for r = 0 to plan.exec_reps - 1 do
    List.iter
      (fun p ->
        let cfg =
          { Jrt.Interp.default_config with policy = Harness.Exp.policy_of p.cw }
        in
        let t0 = now () in
        let m, e =
          span p.k "exec.create" (fun () ->
              let m = Jrt.Interp.create ~cfg p.cw.compiled.program in
              ignore (Jrt.Interp.spawn_thread m p.k.spec.entry []);
              (m, Jrt.Exec.create m))
        in
        let ns = Pstats.ns_of_s (now () -. t0) in
        exec_create := (p.k.spec.name, ns) :: !exec_create;
        if r = 0 then begin
          let rec drive () =
            let live th = not th.Jrt.Interp.finished in
            match List.filter live m.threads with
            | [] -> ()
            | ths ->
                List.iter
                  (fun th -> ignore (Jrt.Exec.slice e th ~fuel:10_000))
                  ths;
                drive ()
          in
          drive ();
          exec_methods := Jrt.Exec.compiled_methods e :: !exec_methods
        end)
      (programs probe_ps)
  done;
  (* the tracing's own cost: each request traced and untraced *)
  let traced_untraced = ref [] in
  for i = 0 to (plan.pairs / 2) - 1 do
    Array.iteri
      (fun ki p ->
        let j = i mod seeds_per_kind in
        let timed trace () =
          let t0 = now () in
          let o =
            request ~trace ~phase:Spans.Pairs ~req:(-1) w p ~rseed:(seed + j)
          in
          let dt = Pstats.ns_of_s (now () -. t0) in
          count (fault p ~j o);
          dt
        in
        traced_untraced :=
          pair (i + ki) (timed true) (timed false) :: !traced_untraced)
      ps
  done;
  {
    runs = !runs;
    failed = !failed;
    faults = List.rev !faults;
    keep_vs_verdicts = !keep_vs_verdicts;
    keep_cost = !keep_cost;
    verdicts_cost = !verdicts_cost;
    flight_on_off = !flight_on_off;
    flight_events = !flight_events;
    exec_create = !exec_create;
    exec_methods = !exec_methods;
    traced_untraced = !traced_untraced;
  }


(* ---- rows ------------------------------------------------------------- *)

(* One row per kind and span or count name: the spans' self times in ns,
   or the counts' values. *)
type row = {
  phase : Spans.phase;
  name : string;
  label : string;
  collector : string;
  values : int list;
}

let row ((k : Spans.kind), name) values =
  { phase = k.phase; name; label = k.label; collector = k.collector; values }

let self_rows (spans : Spans.span list) : row list =
  Spans.with_self spans
  |> group_by (fun ((s : Spans.span), _) -> (s.kind, s.name))
  |> List.map (fun (key, g) ->
         row key (List.map (fun (_, self) -> Pstats.ns_of_s self) g))

let count_rows (counts : Spans.count list) : row list =
  group_by (fun (c : Spans.count) -> (c.c_kind, c.c_name)) counts
  |> List.map (fun (key, g) ->
         row key (List.map (fun (c : Spans.count) -> c.value) g))

let select rows ~phase ?(collector = fun _ -> true) name =
  List.filter
    (fun r -> r.phase = phase && r.name = name && collector r.collector)
    rows

(* mean over kinds of each kind's median self time, in microseconds *)
let layer_us rows ~phase ?collector name : float =
  select rows ~phase ?collector name
  |> List.map (fun r -> float_of_int (Pstats.median r.values))
  |> Pstats.mean
  |> fun ns -> ns /. 1e3

(* every value of a count, over the kinds selected *)
let pooled rows ~phase ?collector name : int list =
  List.concat_map (fun r -> r.values) (select rows ~phase ?collector name)

let mean_count rows ~phase ?collector name : float =
  Pstats.mean (List.map float_of_int (pooled rows ~phase ?collector name))

(* Per kind, the request's layers' median self times summed, and the
   median request; each a geometric mean over kinds, in ns, as
   latency_ms_p50 is.  Medians do not add up exactly, so a ratio near 1
   says the layers explain the request. *)
let layer_sum rows (spans : Spans.span list) : float * float =
  List.filter
    (fun (s : Spans.span) -> s.kind.phase = Request && s.parent = 0)
    spans
  |> group_by (fun (s : Spans.span) -> s.kind.label)
  |> List.map (fun (label, roots) ->
         let layers =
           List.filter
             (fun r ->
               r.phase = Request && r.label = label && r.name <> "request")
             rows
           |> List.fold_left (fun n r -> n + Pstats.median r.values) 0
         in
         let dur (s : Spans.span) = Pstats.ns_of_s (s.t1 -. s.t0) in
         ( float_of_int layers,
           float_of_int (Pstats.median (List.map dur roots)) ))
  |> List.split
  |> fun (layers, requests) -> (Pstats.geomean layers, Pstats.geomean requests)

(* the self-time table: one line per (phase, layer), over kinds *)
let table rows : (Spans.phase * string * int * int * float) list =
  group_by (fun r -> (r.phase, r.name)) rows
  |> List.map (fun ((phase, name), g) ->
         let medians =
           List.map (fun r -> float_of_int (Pstats.median r.values)) g
         in
         ( phase,
           name,
           List.length g,
           List.fold_left (fun n r -> n + List.length r.values) 0 g,
           Pstats.mean medians /. 1e3 ))
  |> List.sort compare

(* ---- the per-layer metrics -------------------------------------------- *)

let values (w : workload) (pr : probes) (spans : Spans.span list)
    (counts : Spans.count list) : (string * float) list =
  let rows = self_rows spans and counts = count_rows counts in
  let compile_phase =
    match w.request with Compile -> Spans.Request | Run -> Spans.Setup
  in
  let compile_us = layer_us rows ~phase:compile_phase in
  let compile_count = mean_count counts ~phase:compile_phase in
  (* the runs that stand for the runtime layer: the requests, or on
     jit-compile the sweep's SATB runs of its programs *)
  let primary_phase, primary =
    match w.request with
    | Run -> (Spans.Request, fun _ -> true)
    | Compile -> (Spans.Sweep, String.equal "satb")
  in
  let runtime_us = layer_us rows ~phase:primary_phase ~collector:primary in
  let run_count = mean_count counts ~phase:primary_phase ~collector:primary in
  let phase_of c =
    if List.mem c (swept w) then Spans.Sweep else Spans.Request
  in
  let collector c =
    let phase = phase_of c and collector = String.equal c in
    let name m = "gc." ^ c ^ "." ^ m in
    let count m = mean_count counts ~phase ~collector ("gc." ^ m) in
    [
      (name "safepoint_us", layer_us rows ~phase ~collector "runtime.safepoint");
      (name "cycles", count "cycles");
      (name "mark_increments", count "mark_increments");
      (name "logged", count "logged");
      ( name "remark_work_p99",
        float_of_int
          (Profile.Stats.percentile
             (pooled counts ~phase ~collector "gc.remark_work")
             99.0) );
    ]
  in
  (* per kind, the median mutator time (the loop's self time) over the
     mean steps *)
  let ns_per_step =
    select rows ~phase:primary_phase ~collector:primary "runtime.loop"
    |> List.map (fun r ->
           let steps =
             select counts ~phase:primary_phase
               ~collector:(String.equal r.collector) "runtime.steps"
             |> List.find (fun c -> c.label = r.label)
           in
           float_of_int (Pstats.median r.values)
           /. Pstats.mean (List.map float_of_int steps.values))
    |> Pstats.mean
  in
  let exec_create_us =
    group_by fst pr.exec_create
    |> List.map (fun (_, g) -> float_of_int (Pstats.median (List.map snd g)))
    |> Pstats.mean
    |> fun ns -> ns /. 1e3
  in
  let keep_delta = Pstats.paired_delta_median pr.keep_vs_verdicts in
  let us ns = float_of_int ns /. 1e3 in
  let pct a b = 100.0 *. float_of_int a /. float_of_int b in
  let mean xs = Pstats.mean (List.map float_of_int xs) in
  [
    ("jir.parse_us", compile_us "jir.parse");
    ("jir.verify_us", compile_us "jir.verify");
    ("core.inline_us", compile_us "core.inline");
    ("core.summary_us", compile_us "core.summary");
    ("core.analysis_us", compile_us "core.analysis");
    ("core.driver_self_us", compile_us "core.compile");
    ("core.alloc_kb", compile_count "core.alloc_bytes" /. 1024.0);
    ("core.inlined_instrs", compile_count "core.inlined_instrs");
    ("core.block_visits", compile_count "core.block_visits");
    ("core.summary_havocs", compile_count "core.summary_havocs");
    ("core.sites", compile_count "core.sites");
    ("core.elided_sites", compile_count "core.elided_sites");
    ("runtime.run_setup_us", runtime_us "harness.run");
    ("runtime.mutator_us", runtime_us "runtime.loop");
    ("runtime.ns_per_step", ns_per_step);
    ("runtime.safepoint_us", runtime_us "runtime.safepoint");
    ("runtime.alloc_kb", run_count "runtime.alloc_bytes" /. 1024.0);
    ("exec.create_us", exec_create_us);
    ("exec.compiled_methods", mean pr.exec_methods);
  ]
  @ List.concat_map collector Metric.collectors
  @ [
      ( "gc.retrace.retraced",
        mean_count counts ~phase:(phase_of "retrace")
          ~collector:(String.equal "retrace") "gc.retraced" );
      ( "gc.none.safepoint_us",
        layer_us rows ~phase:Spans.Sweep ~collector:(String.equal "none")
          "runtime.safepoint" );
      ("pacer.cycles", run_count "pacer.cycles");
      ("pacer.assists", run_count "pacer.assists");
      ("pacer.degraded_cycles", run_count "pacer.degraded_cycles");
      ("barrier.paid_execs", run_count "barrier.paid_execs");
      ("barrier.elided_execs", run_count "barrier.elided_execs");
      ("barrier.model_units", run_count "barrier.model_units");
      ("barrier.keep_all_delta_us", us keep_delta);
      ( "barrier.keep_all_spread_us",
        us (Pstats.iqr (List.map (fun (a, b) -> a - b) pr.keep_vs_verdicts)) );
      ( "barrier.model_saving_pct",
        pct (pr.keep_cost - pr.verdicts_cost) pr.keep_cost );
      ( "barrier.measured_saving_pct",
        pct keep_delta (Pstats.median (List.map fst pr.keep_vs_verdicts)) );
      ("flight.events", mean pr.flight_events);
      ( "flight.on_off_delta_us",
        us (Pstats.paired_delta_median pr.flight_on_off) );
      ( "trace.layer_sum_ratio",
        let layers, request = layer_sum rows spans in
        layers /. request );
      ( "trace.overhead_pct",
        pct
          (Pstats.paired_delta_median pr.traced_untraced)
          (Pstats.median (List.map snd pr.traced_untraced)) );
    ]
