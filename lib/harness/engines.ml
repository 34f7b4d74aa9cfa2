(** E17 — execution-engine comparison: the direct-threaded compiled
    engine ({!Jrt.Exec}) vs the tree-walking interpreter across the six
    Table 1 workloads.

    Both engines run the same compiled workload under the same collector
    with identical scheduling, so every run is deterministic and the two
    final states must be {e identical} — counters, per-site attribution,
    heap graph, statics, GC summary.  {!diff} checks that exhaustively
    (it is also the engine room of the differential QCheck property);
    any mismatch fails the experiment loudly rather than producing a
    pretty table over wrong numbers.

    Throughput is measured by repeating the deterministic run until
    cumulative wall time passes a floor, so the steps/sec ratio is
    stable despite the sub-millisecond single-run times of the bundled
    workloads.  The headline number — the speedup column — is gated in
    CI as a floor (≥5x) so an engine regression cannot be silently
    grandfathered into the baseline. *)

type row = {
  bench : string;
  steps : int;  (** instructions per run (identical under both engines) *)
  interp_steps_s : float;
  threaded_steps_s : float;
  speedup : float;
  equal : bool;  (** the exhaustive {!diff} found no mismatch *)
}

(* ---- exhaustive report comparison -------------------------------------- *)

let site_table (m : Jrt.Interp.t) =
  Hashtbl.fold
    (fun s (st : Jrt.Interp.site_stats) acc ->
      ( Jir.Types.string_of_site s,
        ( st.Jrt.Interp.execs,
          st.pre_null_execs,
          st.paid_execs,
          st.elided_execs,
          st.del_paid_execs,
          st.del_elided_execs,
          st.ins_paid_execs,
          st.ins_elided_execs,
          st.barrier_units,
          st.revocations ) )
      :: acc)
    m.Jrt.Interp.stats []
  |> List.sort compare

let statics_table (m : Jrt.Interp.t) =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) m.Jrt.Interp.statics []
  |> List.sort compare

(* class, liveness and full payload of every object ever allocated, in
   allocation order — object ids are allocation-ordered under both
   engines, so this is a complete heap-graph comparison *)
let heap_table (h : Jrt.Heap.t) =
  List.init h.Jrt.Heap.next_id (fun i ->
      let o = Jrt.Heap.get h i in
      (o.Jrt.Heap.cls, o.Jrt.Heap.dead, o.Jrt.Heap.payload))

(* Flight-recorder parity: both engines drive the same machine and clock
   the recorder with the same instruction counter, so the recorded event
   stream — GC phase transitions, pacer decisions, revocations, faults —
   must be identical — steps included: the threaded engine's step
   source adds the slice's in-flight instruction count ([Exec.inflight]),
   so even an event recorded from inside a fused block carries the
   interpreter's exact charge-before-execute step. *)
let flight_diff (a : Flight.entry list) (b : Flight.entry list) :
    string option =
  if a = b then None
  else
    let rec first_div i = function
      | x :: xs, y :: ys when x = y -> first_div (i + 1) (xs, ys)
      | _ -> i
    in
    let i = first_div 0 (a, b) in
    let show l =
      match List.nth_opt l i with
      | Some e -> Telemetry.json_to_string (Flight.to_json e)
      | None -> "<end>"
    in
    Some
      (Printf.sprintf
         "flight events: %d vs %d records, diverging at #%d: %s vs %s"
         (List.length a) (List.length b) i (show a) (show b))

let diff ?flight (a : Jrt.Runner.report) (b : Jrt.Runner.report) :
    string option =
  let ma = a.Jrt.Runner.machine and mb = b.Jrt.Runner.machine in
  let mismatches = ref [] in
  let chk name equal = if not equal then mismatches := name :: !mismatches in
  let chki name x y =
    if x <> y then
      mismatches := Printf.sprintf "%s: %d vs %d" name x y :: !mismatches
  in
  chki "steps" a.steps b.steps;
  chki "cost_units" a.cost_units b.cost_units;
  chki "barrier_units" a.barrier_units b.barrier_units;
  chki "barriers_executed" ma.Jrt.Interp.barriers_executed
    mb.Jrt.Interp.barriers_executed;
  chki "elided_barrier_execs" ma.Jrt.Interp.elided_barrier_execs
    mb.Jrt.Interp.elided_barrier_execs;
  chki "retrace_checks" ma.Jrt.Interp.retrace_checks
    mb.Jrt.Interp.retrace_checks;
  chki "revocation_events" ma.Jrt.Interp.revocation_events
    mb.Jrt.Interp.revocation_events;
  chki "revoked_sites" ma.Jrt.Interp.revoked_sites
    mb.Jrt.Interp.revoked_sites;
  chki "degradations" ma.Jrt.Interp.degradations mb.Jrt.Interp.degradations;
  chki "degraded_swap_execs" ma.Jrt.Interp.degraded_swap_execs
    mb.Jrt.Interp.degraded_swap_execs;
  chki "assist_execs" ma.Jrt.Interp.assist_execs mb.Jrt.Interp.assist_execs;
  chki "external_paid_execs" ma.Jrt.Interp.external_paid_execs
    mb.Jrt.Interp.external_paid_execs;
  chki "external_elided_execs" ma.Jrt.Interp.external_elided_execs
    mb.Jrt.Interp.external_elided_execs;
  chk "dyn stats" (a.dyn = b.dyn);
  chk "per-site attribution" (site_table ma = site_table mb);
  chk "statics" (statics_table ma = statics_table mb);
  chki "heap objects" ma.Jrt.Interp.heap.Jrt.Heap.next_id
    mb.Jrt.Interp.heap.Jrt.Heap.next_id;
  chki "heap live_units" ma.Jrt.Interp.heap.Jrt.Heap.live_units
    mb.Jrt.Interp.heap.Jrt.Heap.live_units;
  chk "final heap graph"
    (ma.Jrt.Interp.heap.Jrt.Heap.next_id = mb.Jrt.Interp.heap.Jrt.Heap.next_id
    && heap_table ma.Jrt.Interp.heap = heap_table mb.Jrt.Interp.heap);
  chk "gc summary" (a.gc = b.gc);
  chk "pacer stats" (a.pacer = b.pacer);
  chk "hard_stop" (a.hard_stop = b.hard_stop);
  chk "out_of_steps" (a.out_of_steps = b.out_of_steps);
  chk "thread_errors" (a.thread_errors = b.thread_errors);
  (match flight with
  | Some (ea, eb) -> (
      match flight_diff ea eb with
      | Some m -> mismatches := m :: !mismatches
      | None -> ())
  | None -> ());
  match !mismatches with
  | [] -> None
  | ms -> Some (String.concat "; " (List.rev ms))

(* ---- throughput -------------------------------------------------------- *)

(* Throughput cadence: safepoint work (marking increments, chaos hooks,
   root scans) is engine-independent, so at the default fine-grained
   cadence it dominates wall time for BOTH engines and masks the
   dispatch cost being measured.  E17 therefore times mutator throughput
   at a documented coarser cadence — identical for both engines, so the
   ratio is still apples-to-apples — while the exhaustive equality check
   runs at BOTH cadences. *)
let bench_quantum = 500
let bench_gc_period = 512

(** Repeat the deterministic run until cumulative mutator time reaches
    [min_seconds]; returns (steps per run, steps/sec).  Time is the sum
    of each run's [loop_s -. gc_s]: the scheduling loop alone, minus
    safepoint/GC work.  VM bring-up and the threaded engine's up-front
    method compilation are outside [loop_s], and collector work is
    engine-invariant by construction (the exhaustive equality check
    proves the collector saw identical inputs), so what remains — and
    what E17's ratio compares — is steady-state {e mutator} throughput,
    the paper's quantity of interest. *)
let steps_per_sec ~min_seconds ~engine (cw : Exp.compiled_workload) :
    int * float =
  let gc = Jrt.Runner.make_satb () in
  let run () =
    Exp.run ~gc ~engine ~quantum:bench_quantum ~gc_period:bench_gc_period cw
  in
  let mutator_s (r : Jrt.Runner.report) =
    r.Jrt.Runner.loop_s -. r.Jrt.Runner.gc_s
  in
  let first = run () in
  let acc = ref (mutator_s first) in
  let runs = ref 1 in
  while !acc < min_seconds do
    acc := !acc +. mutator_s (run ());
    incr runs
  done;
  let steps = first.Jrt.Runner.steps in
  (steps, float_of_int (steps * !runs) /. !acc)

let measure_one ~min_seconds (w : Workloads.Spec.t) : row =
  let cw = Exp.compile w in
  (* pilot runs per engine for the exhaustive equality check, at the
     default cadence and at the throughput cadence *)
  let gc = Jrt.Runner.make_satb () in
  let check ?quantum ?gc_period tag =
    let ri = Exp.run ~gc ~engine:`Interp ?quantum ?gc_period cw in
    let ei = Flight.events () in
    let rt = Exp.run ~gc ~engine:`Threaded ?quantum ?gc_period cw in
    let et = Flight.events () in
    match diff ~flight:(ei, et) ri rt with
    | None -> ()
    | Some m ->
        Fmt.failwith "E17 %s (%s cadence): engines diverge — %s" w.name tag m
  in
  check "default";
  check ~quantum:bench_quantum ~gc_period:bench_gc_period "bench";
  let equal = true in
  let steps, interp_steps_s =
    steps_per_sec ~min_seconds ~engine:`Interp cw
  in
  let _, threaded_steps_s =
    steps_per_sec ~min_seconds ~engine:`Threaded cw
  in
  let speedup =
    if interp_steps_s = 0.0 then 0.0 else threaded_steps_s /. interp_steps_s
  in
  let r =
    { bench = w.name; steps; interp_steps_s; threaded_steps_s; speedup; equal }
  in
  Telemetry.add_row ~table:"engines"
    [
      ("benchmark", Telemetry.Str r.bench);
      ("steps", Telemetry.Int r.steps);
      ("interp_steps_s", Telemetry.Float r.interp_steps_s);
      ("threaded_steps_s", Telemetry.Float r.threaded_steps_s);
      ("speedup", Telemetry.Float r.speedup);
      ("equal", Telemetry.Bool r.equal);
    ];
  r

let measure ?(min_seconds = 0.2) () : row list =
  Telemetry.clear_table "engines";
  List.map (measure_one ~min_seconds) Workloads.Registry.table1

let render (rows : row list) : string =
  let body =
    List.map
      (fun r ->
        [
          r.bench;
          string_of_int r.steps;
          Printf.sprintf "%.0f" r.interp_steps_s;
          Printf.sprintf "%.0f" r.threaded_steps_s;
          Printf.sprintf "%.1fx" r.speedup;
          (if r.equal then "yes" else "NO");
        ])
      rows
  in
  Tablefmt.render
    ~header:
      [
        "benchmark";
        "steps/run";
        "interp steps/s";
        "threaded steps/s";
        "speedup";
        "identical";
      ]
    ~align:[ Tablefmt.L; R; R; R; R; R ]
    body

let print () =
  print_endline
    "threaded engine vs interpreter (identical = counters, per-site \
     attribution, heap graph, statics and GC summary all byte-equal):";
  print_endline (render (measure ()))
