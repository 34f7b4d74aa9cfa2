(** E16 — the pacing-controller sweep: heap-growth goals, soft limits
    and auto-tuning across the Table 1 workloads and all four
    collectors.

    Each (workload, collector) pair runs under a sweep of pacing
    policies:

    - [fixed-24] / [fixed-64] / [fixed-128] — the legacy
      allocation-count pacing ([Pacer.Fixed]), a cycle every N
      allocations;
    - [goal-1.5] / [goal-2.0] — the GOGC-style heap-growth target;
    - [soft] — [goal-1.5] with a soft limit at 60% of the policy-free
      peak live size (learned by a probe run), so the row is guaranteed
      to exercise the degrade-don't-die machinery: boosted increments,
      forced allocate-black, allocation assists — and must finish with
      {e zero} oracle violations and no hard stop;
    - [auto] — the MMU/percentile feedback mode.

    Every row must report zero violations and zero hard stops (no row
    sets a hard limit; the clean-abort path is exercised by the unit
    tests).  The [soft] rows must show degraded cycles — pressure that
    merely aborts is a pacer bug, pressure that corrupts marking is a
    collector bug; the oracle distinguishes them.

    A chaos sub-sweep reruns every (workload, collector) pair under the
    two allocation faults — a one-burst {e alloc-spike} and a sustained
    {e mem-pressure} ramp — on top of the [soft] policy, again demanding
    zero violations: revocation must stay sound while the pacer is
    absorbing injected garbage.

    The summary table pools each bench's pauses across collectors and
    asks whether [auto]'s p99 beats the best fixed trigger; the
    committed baseline gates the total number of losing benches. *)

type policy = {
  p_name : string;
  p_config : Jrt.Pacer.config;
}

let fixed n =
  { p_name = Printf.sprintf "fixed-%d" n;
    p_config = Jrt.Pacer.config_of_trigger n }

let goal g =
  { p_name = Printf.sprintf "goal-%.1f" g;
    p_config = { Jrt.Pacer.default_config with mode = Jrt.Pacer.Goal g } }

let auto =
  { p_name = "auto";
    p_config = { Jrt.Pacer.default_config with mode = Jrt.Pacer.Auto } }

let soft_of ~(limit : int) =
  { p_name = "soft";
    p_config = { Jrt.Pacer.default_config with soft_limit = Some limit } }

let fixed_policies = [ fixed 24; fixed 64; fixed 128 ]

(** The soft-limit fraction of the probe run's peak live size: low
    enough that the run re-crosses it and degrades, high enough that
    boosted collection can get back under it. *)
let soft_limit_pct = 60

type row = {
  bench : string;
  collector : string;
  policy : string;
  stores : int;
  elide_pct : float;
  cycles : int;
  degraded_cycles : int;
  assists : int;
  p50 : int;
  p99 : int;
  max_pause : int;
  mmu_10 : float;
  max_live : int;  (** peak live heap units the pacer observed *)
  violations : int;
  hard_stops : int;  (** 0 or 1; every sweep row must be 0 *)
  pauses : int list;  (** raw pause works, for the summary pooling *)
}

type chaos_row = {
  c_plan : string;
  c_bench : string;
  c_collector : string;
  c_violations : int;
  c_degraded_cycles : int;
  c_injected : int;  (** ballast objects the fault placed *)
  c_hard_stops : int;
}

type summary_row = {
  s_bench : string;
  s_best_fixed : string;  (** name of the winning fixed policy *)
  s_best_fixed_p99 : int;
  s_auto_p99 : int;
  s_auto_win : bool;
}

let pct num den =
  if den = 0 then 0.0 else 100.0 *. float_of_int num /. float_of_int den

(** Same analysis configuration as E15: null-or-same feeds the deletion
    half, summaries the insertion half; every collector's guard set is
    sound under it. *)
let compile_all () =
  List.map
    (fun w -> Exp.compile ~null_or_same:true ~summaries:true w)
    Workloads.Registry.table1

let run_one ~(coll : Jrt.Runner.collector) ~(pacing : Jrt.Pacer.config)
    ?chaos ?seed (cw : Exp.compiled_workload) : Jrt.Runner.report =
  Exp.run ~gc:(Jrt.Runner.make ~pacing coll) ~guards:true
    ~fail_on_thread_error:false ?chaos ?seed cw

(** Peak live units of a policy-free run — the yardstick the [soft]
    rows derive their limit from. *)
let probe_peak ~(coll : Jrt.Runner.collector) (cw : Exp.compiled_workload) :
    int =
  let r = run_one ~coll ~pacing:Jrt.Pacer.default_config cw in
  match r.Jrt.Runner.pacer with
  | Some p -> max 1 p.Jrt.Pacer.p_max_live_units
  | None -> 1

let row_of ~(coll : Jrt.Runner.collector) ~(policy : string)
    (cw : Exp.compiled_workload) (r : Jrt.Runner.report) : row =
  let m = r.Jrt.Runner.machine in
  let sum f =
    Hashtbl.fold (fun _ st acc -> acc + f st) m.Jrt.Interp.stats 0
  in
  let stores = sum (fun st -> st.Jrt.Interp.execs) in
  let elided = sum (fun st -> st.Jrt.Interp.elided_execs) in
  let cycles, violations, pauses =
    match r.Jrt.Runner.gc with
    | Some g ->
        ( g.Jrt.Runner.cycles,
          g.Jrt.Runner.total_violations,
          g.Jrt.Runner.final_pause_works )
    | None -> (0, 0, [])
  in
  let degraded_cycles, assists, max_live =
    match r.Jrt.Runner.pacer with
    | Some p ->
        ( p.Jrt.Pacer.p_degraded_cycles,
          p.Jrt.Pacer.p_assists,
          p.Jrt.Pacer.p_max_live_units )
    | None -> (0, 0, 0)
  in
  let s = Profile.Stats.of_report r in
  {
    bench = cw.Exp.workload.name;
    collector = Jrt.Runner.collector_name coll;
    policy;
    stores;
    elide_pct = pct elided stores;
    cycles;
    degraded_cycles;
    assists;
    p50 = s.Profile.Stats.dist.d_p50;
    p99 = s.Profile.Stats.dist.d_p99;
    max_pause = s.Profile.Stats.dist.d_max;
    mmu_10 = s.Profile.Stats.mmu_10;
    max_live;
    violations;
    hard_stops = (match r.Jrt.Runner.hard_stop with Some _ -> 1 | None -> 0);
    pauses;
  }

let measure () : row list =
  let compiled = compile_all () in
  List.concat_map
    (fun (cw : Exp.compiled_workload) ->
      List.concat_map
        (fun coll ->
          let peak = probe_peak ~coll cw in
          let soft = soft_of ~limit:(max 8 (peak * soft_limit_pct / 100)) in
          let policies =
            fixed_policies @ [ goal 1.5; goal 2.0; soft; auto ]
          in
          List.map
            (fun p ->
              row_of ~coll ~policy:p.p_name cw
                (run_one ~coll ~pacing:p.p_config cw))
            policies)
        Jrt.Runner.collectors)
    compiled

let to_json (rows : row list) : Telemetry.json =
  Telemetry.List
    (List.map
       (fun r ->
         Telemetry.Obj
           [
             ("bench", Str r.bench);
             ("collector", Str r.collector);
             ("policy", Str r.policy);
             ("stores", Int r.stores);
             ("elide_pct", Float r.elide_pct);
             ("cycles", Int r.cycles);
             ("degraded_cycles", Int r.degraded_cycles);
             ("assists", Int r.assists);
             ("p50", Int r.p50);
             ("p99", Int r.p99);
             ("max_pause", Int r.max_pause);
             ("mmu_10", Float r.mmu_10);
             ("max_live", Int r.max_live);
             ("violations", Int r.violations);
             ("hard_stops", Int r.hard_stops);
           ])
       rows)

(* ---- chaos sub-sweep ---------------------------------------------------- *)

let chaos_plans : (string * Jrt.Chaos.fault list) list =
  [
    ("alloc-spike", [ Jrt.Chaos.Alloc_spike { at_instr = 800; count = 64 } ]);
    ( "mem-pressure",
      [ Jrt.Chaos.Mem_pressure { at_alloc = 32; per_safepoint = 4; total = 200 } ]
    );
  ]

let measure_chaos ?(seed = 1) () : chaos_row list =
  let compiled = compile_all () in
  List.concat_map
    (fun (plan, faults) ->
      List.concat_map
        (fun (cw : Exp.compiled_workload) ->
          List.map
            (fun coll ->
              let peak = probe_peak ~coll cw in
              let soft =
                soft_of ~limit:(max 8 (peak * soft_limit_pct / 100))
              in
              let chaos =
                Jrt.Chaos.create
                  { Jrt.Chaos.seed; faults; quantum = None; gc_period = None }
              in
              let r =
                run_one ~coll ~pacing:soft.p_config ~chaos ~seed cw
              in
              let violations =
                match r.Jrt.Runner.gc with
                | Some g -> g.Jrt.Runner.total_violations
                | None -> 0
              in
              let degraded =
                match r.Jrt.Runner.pacer with
                | Some p -> p.Jrt.Pacer.p_degraded_cycles
                | None -> 0
              in
              let cs = Jrt.Chaos.stats chaos in
              {
                c_plan = plan;
                c_bench = cw.Exp.workload.name;
                c_collector = Jrt.Runner.collector_name coll;
                c_violations = violations;
                c_degraded_cycles = degraded;
                c_injected =
                  cs.Jrt.Chaos.spike_allocs + cs.Jrt.Chaos.ramp_allocs;
                c_hard_stops =
                  (match r.Jrt.Runner.hard_stop with Some _ -> 1 | None -> 0);
              })
            Jrt.Runner.collectors)
        compiled)
    chaos_plans

let chaos_to_json (rows : chaos_row list) : Telemetry.json =
  Telemetry.List
    (List.map
       (fun r ->
         Telemetry.Obj
           [
             ("plan", Str r.c_plan);
             ("bench", Str r.c_bench);
             ("collector", Str r.c_collector);
             ("violations", Int r.c_violations);
             ("degraded_cycles", Int r.c_degraded_cycles);
             ("injected", Int r.c_injected);
             ("hard_stops", Int r.c_hard_stops);
           ])
       rows)

(* ---- the auto-vs-fixed summary ------------------------------------------ *)

let summarize (rows : row list) : summary_row list =
  let benches =
    List.sort_uniq compare (List.map (fun r -> r.bench) rows)
  in
  let pooled_p99 bench policy =
    let pauses =
      List.concat_map
        (fun r ->
          if r.bench = bench && r.policy = policy then r.pauses else [])
        rows
    in
    Profile.Stats.percentile pauses 99.0
  in
  (* A fixed trigger is only a competitor if it actually collects: a
     trigger larger than the workload's whole allocation count runs zero
     cycles on every collector and "wins" on pauses by doing no GC at
     all — the very default-mismatch pathology the goal modes fix. *)
  let qualifies bench policy =
    List.for_all
      (fun r ->
        not (r.bench = bench && r.policy = policy) || r.cycles > 0)
      rows
  in
  List.map
    (fun bench ->
      let candidates =
        match
          List.filter (fun p -> qualifies bench p.p_name) fixed_policies
        with
        | [] -> fixed_policies
        | qs -> qs
      in
      let best_fixed, best_fixed_p99 =
        List.fold_left
          (fun (bn, bp) p ->
            let v = pooled_p99 bench p.p_name in
            if v < bp then (p.p_name, v) else (bn, bp))
          ("?", max_int) candidates
      in
      let auto_p99 = pooled_p99 bench "auto" in
      {
        s_bench = bench;
        s_best_fixed = best_fixed;
        s_best_fixed_p99 = best_fixed_p99;
        s_auto_p99 = auto_p99;
        s_auto_win = auto_p99 <= best_fixed_p99;
      })
    benches

(* the [pacing_summary] table: one row per bench, then a TOTAL row
   carrying the number of losing benches, which the gate bounds *)
let summary_to_json (srows : summary_row list) : Telemetry.json =
  let losses = List.length (List.filter (fun s -> not s.s_auto_win) srows) in
  Telemetry.List
    (List.map
       (fun s ->
         Telemetry.Obj
           [
             ("bench", Str s.s_bench);
             ("best_fixed", Str s.s_best_fixed);
             ("best_fixed_p99", Int s.s_best_fixed_p99);
             ("auto_p99", Int s.s_auto_p99);
             ("auto_win", Int (if s.s_auto_win then 1 else 0));
           ])
       srows
    @ [ Telemetry.Obj [ ("bench", Str "TOTAL"); ("auto_losses", Int losses) ] ])

(* ---- rendering ---------------------------------------------------------- *)

let render (rows : row list) : string =
  let body =
    List.map
      (fun r ->
        [
          r.bench;
          r.collector;
          r.policy;
          Printf.sprintf "%.1f" r.elide_pct;
          string_of_int r.cycles;
          string_of_int r.degraded_cycles;
          string_of_int r.assists;
          string_of_int r.p99;
          Printf.sprintf "%.3f" r.mmu_10;
          string_of_int r.max_live;
          string_of_int r.violations;
          string_of_int r.hard_stops;
        ])
      rows
  in
  Tablefmt.render
    ~header:
      [
        "benchmark";
        "collector";
        "policy";
        "elide%";
        "cycles";
        "degraded";
        "assists";
        "p99";
        "mmu-10%";
        "max-live";
        "violations";
        "hard-stops";
      ]
    ~align:[ Tablefmt.L; L; L; R; R; R; R; R; R; R; R; R ]
    body

let render_chaos (rows : chaos_row list) : string =
  let body =
    List.map
      (fun r ->
        [
          r.c_plan;
          r.c_bench;
          r.c_collector;
          string_of_int r.c_injected;
          string_of_int r.c_degraded_cycles;
          string_of_int r.c_violations;
          string_of_int r.c_hard_stops;
        ])
      rows
  in
  Tablefmt.render
    ~header:
      [
        "plan";
        "benchmark";
        "collector";
        "injected";
        "degraded";
        "violations";
        "hard-stops";
      ]
    ~align:[ Tablefmt.L; L; L; R; R; R; R ]
    body

let render_summary (rows : summary_row list) : string =
  let body =
    List.map
      (fun s ->
        [
          s.s_bench;
          s.s_best_fixed;
          string_of_int s.s_best_fixed_p99;
          string_of_int s.s_auto_p99;
          (if s.s_auto_win then "yes" else "no");
        ])
      rows
  in
  Tablefmt.render
    ~header:[ "benchmark"; "best fixed"; "fixed p99"; "auto p99"; "auto wins" ]
    ~align:[ Tablefmt.L; L; R; R; L ]
    body

let print (rows : row list) (summary : summary_row list)
    (chaos : chaos_row list) =
  print_endline
    "pacing sweep (all rows must show 0 violations and 0 hard stops; \
     'soft' rows must degrade, not die):";
  print_endline (render rows);
  print_endline "";
  print_endline "auto vs best fixed trigger (pauses pooled per bench):";
  print_endline (render_summary summary);
  print_endline "";
  print_endline
    "chaos allocation faults on top of the soft limit (0 violations \
     required):";
  print_endline (render_chaos chaos)
