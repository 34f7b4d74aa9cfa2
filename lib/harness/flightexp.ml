(** E18 — flight recorder walkthrough + overhead.  See flightexp.mli. *)

type row = {
  bench : string;
  steps : int;
  on_steps_s : float;
  off_steps_s : float;
  overhead_pct : float;
  events : int;
}

(* ---- timeline walkthrough ----------------------------------------------- *)

(* The E11 revocation scenario: db compiled with move-down + swap, run
   under the retrace collector with guards wired and a late-spawn fault
   that breaks the single-mutator assumption mid-run — so the dump holds
   mark cycles, a chaos fault, revocations with guard provenance and the
   per-site lifecycle, all on one deterministic step axis. *)
let walkthrough () : string =
  let cw = Exp.compile ~move_down:true ~swap:true Workloads.Db.t in
  let chaos =
    Jrt.Chaos.create
      {
        Jrt.Chaos.seed = 1;
        faults = [ Jrt.Chaos.Late_spawn { at_instr = 1000; stores = 4 } ];
        quantum = None;
        gc_period = None;
      }
  in
  ignore
    (Exp.run
       ~gc:(Jrt.Runner.make_retrace ~pacing:(Jrt.Pacer.config_of_trigger 24) ())
       ~guards:true ~chaos ~fail_on_thread_error:false cw);
  (* the ring still holds this run (the next begin_run resets it); the
     dump -> parse -> render round trip is exactly what `satbelim
     timeline` performs on an auto-captured FLIGHT_dump.json *)
  match Flight.parse_dump (Flight.dump_json ~reason:"walkthrough") with
  | Ok d -> Flight.render_timeline d
  | Error e -> Fmt.failwith "E18 walkthrough: dump does not parse back: %s" e

(* ---- overhead ------------------------------------------------------------ *)

(* Same cadence and mutator-time accounting as E17: coarse safepoints so
   dispatch (and any recording on it) isn't drowned by engine-invariant
   safepoint work, loop_s minus gc_s so collector work is excluded.

   The estimator has to resolve a sub-2% effect against shared-runner
   noise whose slow drift alone is several percent.  Single runs are
   ~0.1-0.5ms, so the two arms are interleaved run-by-run (drift hits
   both equally), the within-pair order alternates (no warmth bias), and
   each arm is summarized by its MEDIAN per-run mutator time (scheduler
   spikes land in the tail).  A/A calibration of this estimator stays
   within +/-1.4% where best-of-trials throughput swung +/-7%. *)
let measure_one ~min_seconds ~min_pairs (w : Workloads.Spec.t) : row =
  let cw = Exp.compile w in
  let gc = Jrt.Runner.make_satb () in
  let mutator_s (r : Jrt.Runner.report) =
    r.Jrt.Runner.loop_s -. r.Jrt.Runner.gc_s
  in
  Fun.protect ~finally:(fun () -> Flight.set_enabled true) @@ fun () ->
  let timed enabled =
    Flight.set_enabled enabled;
    let r =
      Exp.run ~gc ~engine:`Threaded ~quantum:Engines.bench_quantum
        ~gc_period:Engines.bench_gc_period cw
    in
    (r, mutator_s r)
  in
  let r0, _ = timed true in
  let steps = r0.Jrt.Runner.steps in
  let events = Flight.recorded () in
  let t_on = ref [] and t_off = ref [] in
  let acc = ref 0.0 and n = ref 0 in
  while !acc < min_seconds || !n < min_pairs do
    let on, off =
      if !n mod 2 = 0 then
        let _, a = timed true in
        let _, b = timed false in
        (a, b)
      else
        let _, b = timed false in
        let _, a = timed true in
        (a, b)
    in
    acc := !acc +. on +. off;
    t_on := on :: !t_on;
    t_off := off :: !t_off;
    incr n
  done;
  let median l =
    let s = List.sort compare l in
    List.nth s (List.length s / 2)
  in
  let med_on = median !t_on and med_off = median !t_off in
  let overhead_pct =
    if med_off <= 0.0 then 0.0 else 100.0 *. (med_on -. med_off) /. med_off
  in
  let per_sec t = if t <= 0.0 then 0.0 else float_of_int steps /. t in
  {
    bench = w.name;
    steps;
    on_steps_s = per_sec med_on;
    off_steps_s = per_sec med_off;
    overhead_pct;
    events;
  }

let measure ?(min_seconds = 0.6) ?(min_pairs = 50) () : row list =
  List.map (measure_one ~min_seconds ~min_pairs) Workloads.Registry.table1

let to_json (rows : row list) : Telemetry.json =
  Telemetry.List
    (List.map
       (fun r ->
         Telemetry.Obj
           [
             ("benchmark", Str r.bench);
             ("steps", Int r.steps);
             ("on_steps_s", Float r.on_steps_s);
             ("off_steps_s", Float r.off_steps_s);
             ("overhead_pct", Float r.overhead_pct);
             ("events", Int r.events);
           ])
       rows)

(* ---- rendering ----------------------------------------------------------- *)

let render (rows : row list) : string =
  let body =
    List.map
      (fun r ->
        [
          r.bench;
          string_of_int r.steps;
          string_of_int r.events;
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
        "events/run";
        "recorder off steps/s";
        "recorder on steps/s";
        "overhead %";
      ]
    ~align:[ Tablefmt.L; R; R; R; R; R ]
    body

let print (rows : row list) =
  print_endline
    "timeline walkthrough: db under retrace, late-spawn chaos, guards \
     wired (dump -> parse -> reconstruct, as `satbelim timeline` does):";
  print_endline (walkthrough ());
  print_endline
    "recorder overhead, threaded engine at the E17 bench cadence (gated \
     at <2%):";
  print_endline (render rows)
