(** E15 — the Go-style hybrid write barrier and split-verdict elision:
    per-collector, per-half dynamic elision across the Table 1
    workloads, plus a chaos soundness sweep.

    The hybrid barrier has two independent halves: the Yuasa deletion
    half shades the overwritten value, and the Dijkstra insertion half
    shades the stored value while the storing thread's stack is still
    grey.  The analysis produces a split verdict per site —
    [`Elide_deletion] from facts about the {e overwritten} value (the
    classic pre-null / null-or-same chain) and [`Elide_insertion] from
    facts about the {e stored} value (provably null, or every reaching
    definition a fresh allocation) — each with its own guard set, so
    revocation can restore one half while the other stays elided.

    The elision table crosses the four collectors with the six
    workloads.  Under the pure-deletion collectors (satb, incr, retrace)
    the whole barrier {e is} the deletion half, so the deletion-half
    column equals the classic elision rate and the insertion-half column
    is zero by construction; under [hybrid] both halves pay or elide
    independently and a store counts as elided only when {e both}
    halves were removed.  At least one workload must show nonzero
    elision in {e each} half under the hybrid collector.

    The chaos sweep reruns the workloads under the hybrid collector with
    guards wired and revocation on, across the late-spawn, barrier-skip
    and class-load fault plans: every row must report zero oracle
    violations — the spawn revokes [Single_mutator]-guarded halves, the
    class load revokes summary-fresh insertion verdicts
    ([Closed_world]), and the skipped-barrier victims are severed (and
    so unreachable at cycle end), which the hybrid collector's
    end-reachability check tolerates by design. *)

(* every collector cycles every 24 allocations *)
let gc_of coll = Jrt.Runner.make ~pacing:(Jrt.Pacer.config_of_trigger 24) coll

type row = {
  bench : string;
  collector : string;
  stores : int;
  del_elided : int;
  del_paid : int;
  ins_elided : int;
  ins_paid : int;
  both_elided : int;
  del_elide_pct : float;
  ins_elide_pct : float;
  both_elide_pct : float;
  cycles : int;
  violations : int;
}

type chaos_row = {
  c_plan : string;
  c_bench : string;
  c_violations : int;
  c_revocations : int;
  c_revoked_sites : int;
  c_rescans : int;  (** remark-time repair re-scans *)
}

let pct num den =
  if den = 0 then 0.0 else 100.0 *. float_of_int num /. float_of_int den

(** Null-or-same and summaries on: the former feeds the deletion half,
    the latter the summary-fresh insertion verdicts.  Move-down and swap
    stay off — their collector guards fail under [hybrid] by design (no
    descending scan, no tracing-state protocol), which the chaos sweep
    exercises separately. *)
let compile_all () =
  List.map
    (fun w -> Exp.compile ~null_or_same:true ~summaries:true w)
    Workloads.Registry.table1

let run_one ~(coll : Jrt.Runner.collector) ?chaos ?seed
    (cw : Exp.compiled_workload) : Jrt.Runner.report =
  Exp.run ~gc:(gc_of coll) ~guards:true ~fail_on_thread_error:false ?chaos
    ?seed cw

let row_of ~(coll : Jrt.Runner.collector) (cw : Exp.compiled_workload)
    (r : Jrt.Runner.report) : row =
  let m = r.Jrt.Runner.machine in
  let sum f =
    Hashtbl.fold (fun _ st acc -> acc + f st) m.Jrt.Interp.stats 0
  in
  let stores = sum (fun st -> st.Jrt.Interp.execs) in
  let legacy_elided = sum (fun st -> st.Jrt.Interp.elided_execs) in
  let legacy_paid = sum (fun st -> st.Jrt.Interp.paid_execs) in
  (* Pure-deletion collectors: the whole barrier is the deletion half. *)
  let del_elided, del_paid, ins_elided, ins_paid, both_elided =
    match coll with
    | Hybrid ->
        ( sum (fun st -> st.Jrt.Interp.del_elided_execs),
          sum (fun st -> st.Jrt.Interp.del_paid_execs),
          sum (fun st -> st.Jrt.Interp.ins_elided_execs),
          sum (fun st -> st.Jrt.Interp.ins_paid_execs),
          legacy_elided )
    | Satb | Incr | Retrace ->
        (legacy_elided, legacy_paid, 0, 0, legacy_elided)
  in
  let cycles, violations =
    match r.Jrt.Runner.gc with
    | Some g -> (g.Jrt.Runner.cycles, g.Jrt.Runner.total_violations)
    | None -> (0, 0)
  in
  {
    bench = cw.Exp.workload.name;
    collector = Jrt.Runner.collector_name coll;
    stores;
    del_elided;
    del_paid;
    ins_elided;
    ins_paid;
    both_elided;
    del_elide_pct = pct del_elided (del_elided + del_paid);
    ins_elide_pct = pct ins_elided (ins_elided + ins_paid);
    both_elide_pct = pct both_elided stores;
    cycles;
    violations;
  }

let measure () : row list =
  let compiled = compile_all () in
  List.concat_map
    (fun cw ->
      List.map
        (fun coll -> row_of ~coll cw (run_one ~coll cw))
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
             ("stores", Int r.stores);
             ("del_elided", Int r.del_elided);
             ("del_paid", Int r.del_paid);
             ("ins_elided", Int r.ins_elided);
             ("ins_paid", Int r.ins_paid);
             ("both_elided", Int r.both_elided);
             ("del_elide_pct", Float r.del_elide_pct);
             ("ins_elide_pct", Float r.ins_elide_pct);
             ("both_elide_pct", Float r.both_elide_pct);
             ("cycles", Int r.cycles);
             ("violations", Int r.violations);
           ])
       rows)

(** The chaos fault plans of the soundness sweep; each runs under the
    hybrid collector with guards wired and revocation on. *)
let chaos_plans : (string * Jrt.Chaos.fault list) list =
  [
    ("late-spawn", [ Jrt.Chaos.Late_spawn { at_instr = 1000; stores = 4 } ]);
    ( "barrier-skip",
      [ Jrt.Chaos.Barrier_skip { at_instr = 1000; victims = 4 } ] );
    ("class-load", [ Jrt.Chaos.Class_load { at_instr = 800 } ]);
  ]

let measure_chaos ?(seed = 1) () : chaos_row list =
  let compiled = compile_all () in
  List.concat_map
    (fun (plan, faults) ->
      List.map
        (fun (cw : Exp.compiled_workload) ->
          let chaos =
            Jrt.Chaos.create
              { Jrt.Chaos.seed; faults; quantum = None; gc_period = None }
          in
          let r = run_one ~coll:Hybrid ~chaos ~seed cw in
          let violations, rescans =
            match r.Jrt.Runner.gc with
            | Some g ->
                ( g.Jrt.Runner.total_violations,
                  List.fold_left ( + ) 0 g.Jrt.Runner.retraced )
            | None -> (0, 0)
          in
          {
            c_plan = plan;
            c_bench = cw.Exp.workload.name;
            c_violations = violations;
            c_revocations = r.machine.Jrt.Interp.revocation_events;
            c_revoked_sites = r.machine.Jrt.Interp.revoked_sites;
            c_rescans = rescans;
          })
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
             ("violations", Int r.c_violations);
             ("revocations", Int r.c_revocations);
             ("revoked_sites", Int r.c_revoked_sites);
             ("rescans", Int r.c_rescans);
           ])
       rows)

let render (rows : row list) : string =
  let body =
    List.map
      (fun r ->
        [
          r.bench;
          r.collector;
          string_of_int r.stores;
          Printf.sprintf "%d (%.1f%%)" r.del_elided r.del_elide_pct;
          Printf.sprintf "%d (%.1f%%)" r.ins_elided r.ins_elide_pct;
          Printf.sprintf "%d (%.1f%%)" r.both_elided r.both_elide_pct;
          string_of_int r.cycles;
          string_of_int r.violations;
        ])
      rows
  in
  Tablefmt.render
    ~header:
      [
        "benchmark";
        "collector";
        "stores";
        "del-half elided";
        "ins-half elided";
        "both elided";
        "cycles";
        "violations";
      ]
    ~align:[ Tablefmt.L; L; R; R; R; R; R; R ]
    body

let render_chaos (rows : chaos_row list) : string =
  let body =
    List.map
      (fun r ->
        [
          r.c_plan;
          r.c_bench;
          string_of_int r.c_violations;
          string_of_int r.c_revocations;
          string_of_int r.c_revoked_sites;
          string_of_int r.c_rescans;
        ])
      rows
  in
  Tablefmt.render
    ~header:
      [ "plan"; "benchmark"; "violations"; "revocations"; "sites"; "rescans" ]
    ~align:[ Tablefmt.L; L; R; R; R; R ]
    body

let print (rows : row list) (chaos : chaos_row list) =
  print_endline "per-collector, per-half dynamic elision:";
  print_endline (render rows);
  print_endline "";
  print_endline
    "chaos soundness sweep under hybrid (guards + revocation on; every \
     row must show 0 violations):";
  print_endline (render_chaos chaos)
