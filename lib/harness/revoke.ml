(** E11 — guarded elision under fault injection: revocation closes every
    chaos hole the guards cover, and the oracle still catches the holes
    they don't.

    The sweep crosses chaos fault plans (late second-mutator spawn,
    forced marker preemption, mid-cycle heap pressure, retrace-budget
    overflow) with both SATB-family collectors (plain and retrace) over
    the Table 1 workloads, compiled with every §4.3 extension on so as
    many verdicts as possible carry guards.  With revocation enabled every
    run must finish with zero oracle violations: the late spawn revokes
    [Single_mutator] before the injected mutator's first store, running
    swap verdicts under plain SATB revokes [Retrace_collector] at
    startup, and a budget overflow degrades the cycle (swap elision off,
    stores logged) instead of hanging or aborting.  With revocation
    disabled the same late-spawn plan — and the deliberately unsound
    barrier-skip plan, which no guard covers — must be caught by the
    snapshot oracle, demonstrating both halves of the
    speculate-and-revoke contract. *)

type collector = Csatb | Cretrace

let collector_name = function Csatb -> "satb" | Cretrace -> "retrace"

let gc_of ?(steps_per_increment = 8) coll =
  let pacing = Jrt.Pacer.config_of_trigger 24 in
  match coll with
  | Csatb -> Jrt.Runner.make_satb ~pacing ~steps_per_increment ()
  | Cretrace -> Jrt.Runner.make_retrace ~pacing ~steps_per_increment ()

(** The fault plans of the revocation-enabled sweep.  [budget-overflow]
    drives the termination watchdog: marking is slowed to one gray entry
    per increment and frozen mid-scan by a long marker preemption, so the
    cycle is still live when the swap-heavy phase runs, and a zero
    retrace budget trips the watchdog on the first unlogged store. *)
let plans : (string * Jrt.Chaos.fault list * int option * int) list =
  [
    ( "late-spawn",
      [ Jrt.Chaos.Late_spawn { at_instr = 1000; stores = 4 } ],
      None,
      8 );
    ( "preemption",
      [ Jrt.Chaos.Preempt_marker { at_alloc = 48; skips = 12 } ],
      None,
      8 );
    ("heap-pressure", [ Jrt.Chaos.Heap_pressure { at_alloc = 64 } ], None, 8);
    ( "budget-overflow",
      [ Jrt.Chaos.Preempt_marker { at_alloc = 24; skips = 700 } ],
      Some 0,
      1 );
  ]

type row = {
  plan : string;
  collector : string;
  bench : string;
  violations : int;
  revocations : int;  (** assumptions revoked at runtime *)
  revoked_sites : int;  (** elided sites patched back to full barriers *)
  degradations : int;  (** cycles that hit the retrace budget *)
  damage : int;  (** chaos damage stores performed *)
  retraces : int;  (** forced re-scans, incl. revocation repair *)
}

type caught_row = {
  c_plan : string;
  c_collector : string;
  c_bench : string;
  c_seed : int;
  c_violations : int;  (** > 0 = the oracle caught the unrepaired fault *)
}

let compile_all () =
  List.map
    (fun w -> Exp.compile ~null_or_same:true ~move_down:true ~swap:true w)
    Workloads.Registry.table1

let run_one ~revoke ~plan_name ~faults ~budget ?steps_per_increment ~seed
    ~(coll : collector) (cw : Exp.compiled_workload) : row =
  let chaos =
    match faults with
    | [] -> None
    | faults ->
        Some
          (Jrt.Chaos.create
             { Jrt.Chaos.seed; faults; quantum = None; gc_period = None })
  in
  let r =
    Exp.run
      ~gc:(gc_of ?steps_per_increment coll)
      ~guards:true ~revoke ?chaos ?retrace_budget:budget
      ~fail_on_thread_error:false ~seed cw
  in
  let violations, retraces =
    match r.gc with
    | Some g -> (g.total_violations, List.fold_left ( + ) 0 g.retraced)
    | None -> (0, 0)
  in
  let damage =
    match chaos with
    | Some c ->
        let s = Jrt.Chaos.stats c in
        s.Jrt.Chaos.damage_stores + s.Jrt.Chaos.skipped_barriers
    | None -> 0
  in
  {
    plan = plan_name;
    collector = collector_name coll;
    bench = cw.Exp.workload.name;
    violations;
    revocations = r.machine.Jrt.Interp.revocation_events;
    revoked_sites = r.machine.Jrt.Interp.revoked_sites;
    degradations = r.machine.Jrt.Interp.degradations;
    damage;
    retraces;
  }

let add_row (r : row) : row =
  Telemetry.add_row ~table:"revoke"
    [
      ("plan", Telemetry.Str r.plan);
      ("collector", Telemetry.Str r.collector);
      ("benchmark", Telemetry.Str r.bench);
      ("violations", Telemetry.Int r.violations);
      ("revocations", Telemetry.Int r.revocations);
      ("revoked_sites", Telemetry.Int r.revoked_sites);
      ("degradations", Telemetry.Int r.degradations);
      ("damage", Telemetry.Int r.damage);
      ("retraces", Telemetry.Int r.retraces);
    ];
  r

(** The revocation-enabled sweep: every row must report 0 violations. *)
let measure () : row list =
  Telemetry.clear_table "revoke";
  let compiled = compile_all () in
  List.concat_map
    (fun (plan_name, faults, budget, steps_per_increment) ->
      List.concat_map
        (fun coll ->
          List.map
            (fun cw ->
              add_row
                (run_one ~revoke:true ~plan_name ~faults ~budget
                   ~steps_per_increment ~seed:1 ~coll cw))
            compiled)
        [ Csatb; Cretrace ])
    plans

(** The revocation-disabled counterpart on the workloads with guarded
    elisions: the oracle must catch the late spawn somewhere, and must
    catch every barrier skip (no guard covers it). *)
let measure_caught ?(seeds = [ 1; 2 ]) () : caught_row list =
  Telemetry.clear_table "revoke_caught";
  let guarded =
    List.filter
      (fun (cw : Exp.compiled_workload) ->
        cw.workload.name = "db" || cw.workload.name = "jbb")
      (compile_all ())
  in
  let negative_plans =
    [
      ("late-spawn", [ Jrt.Chaos.Late_spawn { at_instr = 1000; stores = 4 } ]);
      ("barrier-skip", [ Jrt.Chaos.Barrier_skip { at_instr = 1000; victims = 4 } ]);
    ]
  in
  List.concat_map
    (fun (plan_name, faults) ->
      List.concat_map
        (fun coll ->
          List.concat_map
            (fun (cw : Exp.compiled_workload) ->
              List.map
                (fun seed ->
                  let r =
                    run_one ~revoke:false ~plan_name ~faults ~budget:None
                      ~seed ~coll cw
                  in
                  Telemetry.add_row ~table:"revoke_caught"
                    [
                      ("plan", Telemetry.Str plan_name);
                      ("collector", Telemetry.Str r.collector);
                      ("benchmark", Telemetry.Str r.bench);
                      ("seed", Telemetry.Int seed);
                      ("violations", Telemetry.Int r.violations);
                    ];
                  {
                    c_plan = plan_name;
                    c_collector = r.collector;
                    c_bench = r.bench;
                    c_seed = seed;
                    c_violations = r.violations;
                  })
                seeds)
            guarded)
        [ Csatb; Cretrace ])
    negative_plans

let render (rows : row list) : string =
  let body =
    List.map
      (fun r ->
        [
          r.plan;
          r.collector;
          r.bench;
          string_of_int r.violations;
          string_of_int r.revocations;
          string_of_int r.revoked_sites;
          string_of_int r.degradations;
          string_of_int r.damage;
          string_of_int r.retraces;
        ])
      rows
  in
  Tablefmt.render
    ~header:
      [
        "plan";
        "collector";
        "benchmark";
        "violations";
        "revocations";
        "sites";
        "degraded";
        "damage";
        "retraces";
      ]
    ~align:[ Tablefmt.L; L; L; R; R; R; R; R; R ]
    body

let render_caught (rows : caught_row list) : string =
  let body =
    List.map
      (fun r ->
        [
          r.c_plan;
          r.c_collector;
          r.c_bench;
          string_of_int r.c_seed;
          string_of_int r.c_violations;
          (if r.c_violations > 0 then "caught" else "-");
        ])
      rows
  in
  Tablefmt.render
    ~header:[ "plan"; "collector"; "benchmark"; "seed"; "violations"; "oracle" ]
    ~align:[ Tablefmt.L; L; L; R; R; L ]
    body

let print () =
  print_endline "revocation enabled (every row must show 0 violations):";
  print_endline (render (measure ()));
  print_endline "";
  print_endline "revocation disabled (--no-revoke; the oracle must catch):";
  print_endline (render_caught (measure_caught ()))
