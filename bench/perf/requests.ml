(* The workloads, their requests and the checks on every request's
   output, the set-up before the timed loop, and the loop itself.

   The layers are called through their public functions only:
   Workloads.Spec.parse, Jir.Verifier.verify_exn, Satb_core.Driver.compile,
   Harness.Exp.compile / Harness.Exp.run and Jrt.Exec.create.  Traced
   calls record spans from here; nothing inside lib/ is traced. *)

open Perf_lib

let now = Unix.gettimeofday

(* ---- workloads ------------------------------------------------------- *)

type request = Compile | Run

type kind = {
  label : string;
  spec : Workloads.Spec.t;
  inline_limit : int;
  summaries : bool;
  collector : string;  (** "" for compile kinds *)
  quantum : int;
  gc_period : int;
}

type workload = {
  name : string;
  request : request;
  kinds : kind list;
  per_kind : int;  (** requests per kind in a run of [nominal_seconds] *)
}

(* Request counts are sized so that each timed loop lasts about this long
   on a 2-core x86-64 container; --seconds scales them. *)
let nominal_seconds = 20

let run_kind ~collector ~cadence:(quantum, gc_period) (spec : Workloads.Spec.t)
    =
  {
    label = spec.name ^ "/" ^ collector;
    spec;
    inline_limit = 100;
    summaries = false;
    collector;
    quantum;
    gc_period;
  }

let compile_kind (spec : Workloads.Spec.t) (inline_limit, summaries) =
  {
    label =
      Printf.sprintf "%s/limit%d%s" spec.name inline_limit
        (if summaries then "+summaries" else "");
    spec;
    inline_limit;
    summaries;
    collector = "";
    quantum = 0;
    gc_period = 0;
  }

(* E17's throughput cadence, and the runner's default one *)
let e17_cadence =
  (Harness.Engines.bench_quantum, Harness.Engines.bench_gc_period)

let default_cadence = (50, 32)

let mutator_kinds =
  List.map
    (run_kind ~collector:"satb" ~cadence:e17_cadence)
    Workloads.Registry.table1

(* Why each workload was chosen is recorded in README.md. *)
let workloads =
  [
    {
      name = "jit-compile";
      request = Compile;
      (* Fig. 2's default limit, its costliest point, and summaries *)
      kinds =
        List.concat_map
          (fun s ->
            List.map (compile_kind s) [ (100, false); (200, false); (0, true) ])
          Workloads.Registry.table1;
      per_kind = 1000;
    };
    {
      name = "mutator";
      request = Run;
      kinds = mutator_kinds;
      per_kind = 10_000;
    };
    {
      name = "compute";
      request = Run;
      kinds =
        List.map
          (run_kind ~collector:"satb" ~cadence:e17_cadence)
          Workloads.Registry.omitted;
      per_kind = 30_000;
    };
    {
      name = "gc-churn";
      request = Run;
      kinds =
        List.concat_map
          (fun s ->
            List.map
              (fun collector -> run_kind ~collector ~cadence:default_cadence s)
              Metric.collectors)
          [ Workloads.Jbb.t; Workloads.Db.t; Workloads.Jack.t ];
      per_kind = 2_000;
    };
  ]

let find_workload name = List.find_opt (fun w -> w.name = name) workloads

let gc_of = function
  | "none" -> Jrt.Runner.No_gc
  | "satb" -> Jrt.Runner.make_satb ()
  | "incr" -> Jrt.Runner.make_incr ()
  | "retrace" -> Jrt.Runner.make_retrace ()
  | "hybrid" -> Jrt.Runner.make_hybrid ()
  | c -> invalid_arg ("unknown collector " ^ c)

(* ---- output checks --------------------------------------------------- *)

(* the counters a run must reproduce from its interpreter reference *)
type digest = {
  d_steps : int;
  d_cost_units : int;
  d_barrier_units : int;
  d_paid : int;
  d_elided : int;
  d_cycles : int;
  d_pauses : int list;
}

let digest (r : Jrt.Runner.report) =
  let cycles, pauses =
    match r.gc with
    | Some g -> (g.cycles, g.final_pause_works)
    | None -> (0, [])
  in
  {
    d_steps = r.steps;
    d_cost_units = r.cost_units;
    d_barrier_units = r.barrier_units;
    d_paid = r.machine.barriers_executed;
    d_elided = r.machine.elided_barrier_execs;
    d_cycles = cycles;
    d_pauses = pauses;
  }

let run_fault (r : Jrt.Runner.report) : string option =
  match (r.thread_errors, r.hard_stop, r.gc) with
  | (tid, e) :: _, _, _ -> Some (Printf.sprintf "thread %d died: %s" tid e)
  | [], Some msg, _ -> Some ("hard stop: " ^ msg)
  | [], None, Some g when g.total_violations > 0 ->
      Some (Printf.sprintf "%d oracle violations" g.total_violations)
  | _ -> None

type prepared = {
  k : kind;
  gc : Jrt.Runner.gc_choice;
  cw : Harness.Exp.compiled_workload;
  stats : Satb_core.Driver.static_stats;  (** the compile reference *)
  refs : digest array;
      (** the interpreter reference per runner-seed index; empty for
          compile kinds and probe-only kinds *)
}

let seeds_per_kind = 4

type outcome = Compiled of Satb_core.Driver.compiled | Ran of Jrt.Runner.report

let fault (p : prepared) ~j (o : outcome) : string option =
  match o with
  | Compiled c ->
      if Satb_core.Driver.static_stats c = p.stats then None
      else Some "static_stats differ from the set-up compile"
  | Ran r -> (
      match run_fault r with
      | Some f -> Some f
      | None when Array.length p.refs = 0 || digest r = p.refs.(j) -> None
      | None -> Some "counters differ from the interpreter reference")

(* ---- the layer calls -------------------------------------------------- *)

let run ?(use_policy = true) ?(engine = `Threaded) (p : prepared) ~rseed =
  Harness.Exp.run ~gc:p.gc ~use_policy ~engine ~seed:rseed ~quantum:p.k.quantum
    ~gc_period:p.k.gc_period ~fail_on_thread_error:false p.cw

let compile (k : kind) =
  Harness.Exp.compile ~inline_limit:k.inline_limit ~summaries:k.summaries
    k.spec

let ctx_of phase ~req (k : kind) =
  Spans.ctx phase ~req ~label:k.label ~collector:k.collector

let bytes_since a0 = int_of_float (Gc.allocated_bytes () -. a0)

(* Exp.compile's work, one span per layer call: parse, verify, then
   Driver.compile with the pass times it reports as children.  Its counts
   go to the per-layer ledger. *)
let traced_compile (ctx : Spans.ctx) ~parent (k : kind) :
    Harness.Exp.compiled_workload =
  let prog =
    Spans.call ctx ~parent "jir.parse" (fun _ -> Workloads.Spec.parse k.spec)
  in
  Spans.call ctx ~parent "jir.verify" (fun _ -> Jir.Verifier.verify_exn prog);
  let a0 = Gc.allocated_bytes () in
  let conf =
    { Satb_core.Analysis.default_config with summaries = k.summaries }
  in
  let c =
    Spans.call ctx ~parent "core.compile" (fun id ->
        let at = ref (now ()) in
        let c =
          Satb_core.Driver.compile ~verify:false ~inline_limit:k.inline_limit
            ~conf prog
        in
        let pass name dur =
          ignore (Spans.child ctx ~parent:id name ~start:!at dur);
          at := !at +. dur
        in
        pass "core.inline" c.inline_seconds;
        if k.summaries then pass "core.summary" c.summary_seconds;
        pass "core.analysis" c.analysis_seconds;
        c)
  in
  let count = Spans.count ctx in
  count "core.alloc_bytes" (bytes_since a0);
  count "core.inlined_instrs" (Jir.Program.total_instr_count c.program);
  count "core.block_visits"
    (List.fold_left
       (fun n (r : Satb_core.Analysis.method_result) -> n + r.iterations)
       0 c.results);
  count "core.summary_havocs"
    (Option.fold ~none:0 ~some:Satb_core.Summary.n_havoced c.summaries);
  let st = Satb_core.Driver.static_stats c in
  count "core.sites" st.total_sites;
  count "core.elided_sites" st.elided_sites;
  { Harness.Exp.workload = k.spec; compiled = c }

(* Exp.run with the runner's loop_s and gc_s as nested children: the
   run's self time is its set-up, the loop's is the mutator's.  Its
   counts go to the per-layer ledger, under the run's kind and so its
   collector; each final pause's work is one count. *)
let traced_run (ctx : Spans.ctx) ~parent (p : prepared) ~rseed :
    Jrt.Runner.report =
  let a0 = Gc.allocated_bytes () in
  let r =
    Spans.call ctx ~parent "harness.run" (fun id ->
        let r = run p ~rseed in
        let t1 = now () in
        let loop =
          Spans.child ctx ~parent:id "runtime.loop" ~start:(t1 -. r.loop_s)
            r.loop_s
        in
        ignore
          (Spans.child ctx ~parent:loop "runtime.safepoint"
             ~start:(t1 -. r.gc_s) r.gc_s);
        r)
  in
  let count = Spans.count ctx in
  count "runtime.alloc_bytes" (bytes_since a0);
  count "runtime.steps" r.steps;
  count "barrier.paid_execs" r.machine.barriers_executed;
  count "barrier.elided_execs" r.machine.elided_barrier_execs;
  count "barrier.model_units" r.barrier_units;
  Option.iter
    (fun (g : Jrt.Runner.gc_summary) ->
      let sum = List.fold_left ( + ) 0 in
      count "gc.cycles" g.cycles;
      count "gc.mark_increments" (sum g.mark_increments);
      count "gc.logged" (sum g.logged_or_dirtied);
      count "gc.retraced" (sum g.retraced);
      List.iter (count "gc.remark_work") g.final_pause_works)
    r.gc;
  Option.iter
    (fun (s : Jrt.Pacer.stats) ->
      count "pacer.cycles" s.p_cycles;
      count "pacer.assists" s.p_assists;
      count "pacer.degraded_cycles" s.p_degraded_cycles)
    r.pacer;
  r

(* One request.  Untraced it is a single call: Exp.compile or Exp.run. *)
let request ~trace ~phase ~req (w : workload) (p : prepared) ~rseed : outcome =
  match (trace, w.request) with
  | false, Compile -> Compiled (compile p.k).compiled
  | false, Run -> Ran (run p ~rseed)
  | true, _ ->
      let ctx = ctx_of phase ~req p.k in
      Spans.call ctx ~parent:0 "request" (fun id ->
          match w.request with
          | Compile -> Compiled (traced_compile ctx ~parent:id p.k).compiled
          | Run -> Ran (traced_run ctx ~parent:id p ~rseed))

(* ---- set-up ----------------------------------------------------------- *)

let prepare_kind ~trace (k : kind) : prepared =
  let cw =
    if trace then traced_compile (ctx_of Spans.Setup ~req:(-1) k) ~parent:0 k
    else compile k
  in
  let gc = if k.collector = "" then Jrt.Runner.No_gc else gc_of k.collector in
  { k; gc; cw; stats = Satb_core.Driver.static_stats cw.compiled; refs = [||] }

(* The interpreter and the threaded engine must agree exactly, flight
   events included, for every (kind, runner seed) the requests use; the
   interpreter's counters become that pair's reference. *)
let references ~trace ~seed (p : prepared) : digest array =
  let span name f =
    if trace then
      Spans.call (ctx_of Spans.Setup ~req:(-1) p.k) ~parent:0 name (fun _ ->
          f ())
    else f ()
  in
  Array.init seeds_per_kind (fun j ->
      let rseed = seed + j in
      let ri =
        span "harness.run.interp" (fun () -> run ~engine:`Interp p ~rseed)
      in
      let ei = Flight.events () in
      let rt = span "harness.run.threaded" (fun () -> run p ~rseed) in
      let et = Flight.events () in
      (match run_fault ri with
      | Some f -> Fmt.failwith "set-up: %s seed %d: %s" p.k.label rseed f
      | None -> ());
      (match Harness.Engines.diff ~flight:(ei, et) ri rt with
      | Some m ->
          Fmt.failwith "set-up: %s seed %d: engines diverge: %s" p.k.label
            rseed m
      | None -> ());
      digest ri)

(* Compile every program, check the engines against each other, then
   make one untimed, checked warm-up pass over the kinds. *)
let setup ~trace ~seed (w : workload) : prepared array =
  let ps = Array.of_list (List.map (prepare_kind ~trace) w.kinds) in
  let ps =
    match w.request with
    | Compile -> ps
    | Run -> Array.map (fun p -> { p with refs = references ~trace ~seed p }) ps
  in
  Array.iter
    (fun p ->
      let o = request ~trace:false ~phase:Setup ~req:(-1) w p ~rseed:seed in
      match fault p ~j:0 o with
      | Some f -> Fmt.failwith "set-up: warm-up %s: %s" p.k.label f
      | None -> ())
    ps;
  ps

(* ---- the timed loop --------------------------------------------------- *)

(* (kind, seed index): the j-th request of kind k uses seed index
   j mod 4; the order is shuffled from the seed *)
let order ~seed ~per_kind (n_kinds : int) : (int * int) array =
  let a =
    Array.init (n_kinds * per_kind) (fun i ->
        (i mod n_kinds, i / n_kinds mod seeds_per_kind))
  in
  let st = Random.State.make [| seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

type loop = {
  order : (int * int) array;  (** (kind, seed index) of each request *)
  lat : int array;  (** nanoseconds per request; -1 where it failed *)
  round_end : float array;
      (** per round (see [rounds]): loop seconds when its last request
          returned *)
  round_work : int array;
      (** per round: steps executed, or inlined instructions compiled *)
  attempted : int;
  failed : int;
  faults : string list;  (** the first few *)
  wall : float;
  dyn_total : int;
  dyn_elided : int;
  passed : int array array;
      (** passing requests per kind and seed index: each ran exactly as
          its reference, whose pauses therefore stand for its own *)
}

(* The loop is cut into ten rounds of consecutive requests, or fewer so
   that a round holds a request of each kind on average; round [r] is
   the requests [rounds_of n kinds] gives it. *)
let rounds_of n kinds : (int * int) array =
  let r = max 1 (min 10 (n / kinds)) in
  Array.init r (fun i -> (i * n / r, (i + 1) * n / r))

(* Failed requests are counted, never retried, and left out of the
   latency samples.  Samples go to flat arrays, which the collector does
   not have to trace.  [setup] runs [setups] times, evenly spread over
   the loop, on a clock the loop's own timings exclude. *)
let timed_loop ?(setups = 0) ?(setup = ignore) ~trace ~seed (w : workload)
    (ps : prepared array) order : loop =
  let n = Array.length order in
  let rounds = rounds_of n (Array.length ps) in
  let round_end = Array.make (Array.length rounds) 0.0 in
  let round_work = Array.make (Array.length rounds) 0 in
  let round = ref 0 in
  let paused = ref 0.0 and next = ref 0 in
  let clock () = now () -. !paused in
  let lat = Array.make n (-1) in
  let failed = ref 0 and faults = ref [] in
  let dyn_total = ref 0 and dyn_elided = ref 0 in
  let passed = Array.map (fun _ -> Array.make seeds_per_kind 0) ps in
  let t0 = clock () in
  Array.iteri
    (fun i (ki, j) ->
      if !next < setups && i = ((2 * !next) + 1) * n / (2 * setups) then begin
        let t = now () in
        setup ();
        paused := !paused +. (now () -. t);
        incr next
      end;
      let p = ps.(ki) in
      let ta = now () in
      let o =
        match request ~trace ~phase:Request ~req:i w p ~rseed:(seed + j) with
        | o -> Ok o
        | exception e -> Error (Printexc.to_string e)
      in
      let tb = now () in
      let ri = !round in
      if i = snd rounds.(ri) - 1 then begin
        round_end.(ri) <- clock () -. t0;
        incr round
      end;
      let work x = round_work.(ri) <- round_work.(ri) + x in
      let checked o =
        Option.fold ~none:(Ok o) ~some:Result.error (fault p ~j o)
      in
      match Result.bind o checked with
      | Ok o -> (
          lat.(i) <- Pstats.ns_of_s (tb -. ta);
          passed.(ki).(j) <- passed.(ki).(j) + 1;
          match o with
          | Compiled c -> work (Jir.Program.total_instr_count c.program)
          | Ran r ->
              work r.steps;
              dyn_total := !dyn_total + r.dyn.total_execs;
              dyn_elided := !dyn_elided + r.dyn.elided_execs)
      | Error f ->
          incr failed;
          if List.length !faults < 5 then
            faults := Printf.sprintf "%s: %s" p.k.label f :: !faults)
    order;
  {
    order;
    lat;
    round_end;
    round_work;
    attempted = n;
    failed = !failed;
    faults = List.rev !faults;
    wall = clock () -. t0;
    dyn_total = !dyn_total;
    dyn_elided = !dyn_elided;
    passed;
  }

(* the latencies of kind [k]'s passing requests among requests [a, b) *)
let kind_lat ?(range = (0, max_int)) (l : loop) k : int list =
  let acc = ref [] in
  for i = fst range to min (snd range) l.attempted - 1 do
    if fst l.order.(i) = k && l.lat.(i) >= 0 then acc := l.lat.(i) :: !acc
  done;
  !acc

(* every final-pause work of the passing run requests *)
let pauses (ps : prepared array) (l : loop) : int list =
  let acc = ref [] in
  Array.iteri
    (fun ki p ->
      Array.iteri
        (fun j (r : digest) ->
          for _ = 1 to l.passed.(ki).(j) do
            acc := List.rev_append r.d_pauses !acc
          done)
        p.refs)
    ps;
  !acc
