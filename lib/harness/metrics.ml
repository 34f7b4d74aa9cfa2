(** The [--metrics] document, rendered from a command's compile and run
    reports.  See metrics.mli. *)

open Telemetry

let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

let analysis (c : Satb_core.Driver.compiled) =
  let results = c.results in
  [
    ("analysis.methods", List.length results);
    ( "analysis.fixpoint_iterations",
      sum (fun (r : Satb_core.Analysis.method_result) -> r.iterations) results
    );
    ( "analysis.invoke_havocs",
      sum
        (fun (r : Satb_core.Analysis.method_result) -> r.invoke_havocs)
        results );
    ("analysis.sites.total", Hashtbl.length c.sites);
    ( "analysis.sites.elided",
      Hashtbl.fold
        (fun _ (s : Satb_core.Driver.site_verdict) n ->
          if s.analysis.v_elide then n + 1 else n)
        c.sites 0 );
  ]
  @
  match c.summaries with
  | None -> []
  | Some tbl ->
      let havoced = Satb_core.Summary.n_havoced tbl in
      [
        ("summary.methods", Satb_core.Summary.n_methods tbl);
        ("summary.havoced", havoced);
      ]
      @ if havoced > 0 then [ ("summary.widened", havoced) ] else []

(* The runtime names: each is present, summed over the runs, even for a
   command that ran nothing. *)
let runtime ?chaos (reports : Jrt.Runner.report list) =
  let machine name f =
    ("jrt." ^ name, sum (fun (r : Jrt.Runner.report) -> f r.machine) reports)
  in
  (* gc.* is shared by every policy; retrace.* belongs to the retrace
     list (under the hybrid policy [rescans] counts repair-set re-grays) *)
  let cycles ~retrace_only name f =
    ( name,
      sum
        (fun (r : Jrt.Runner.report) ->
          match r.gc with
          | Some g
            when (not retrace_only)
                 || r.machine.gc.Jrt.Gc_hooks.caps.retrace_protocol ->
              sum f g.reports
          | Some _ | None -> 0)
        reports )
  in
  let gc name f = cycles ~retrace_only:false ("gc." ^ name) f in
  let retrace name f = cycles ~retrace_only:true ("retrace." ^ name) f in
  let pacer name f =
    ( "pacer." ^ name,
      sum
        (fun (r : Jrt.Runner.report) -> Option.fold ~none:0 ~some:f r.pacer)
        reports )
  in
  let chaos name f =
    ( "chaos." ^ name,
      Option.fold ~none:0 ~some:(fun c -> f (Jrt.Chaos.stats c)) chaos )
  in
  [
    machine "barriers_executed" (fun m -> m.barriers_executed);
    machine "elided_barrier_execs" (fun m -> m.elided_barrier_execs);
    machine "retrace_checks" (fun m -> m.retrace_checks);
    machine "revocation_events" (fun m -> m.revocation_events);
    machine "revoked_sites" (fun m -> m.revoked_sites);
    machine "degradations" (fun m -> m.degradations);
    machine "degraded_swap_execs" (fun m -> m.degraded_swap_execs);
    machine "assist_execs" (fun m -> m.assist_execs);
    gc "cycles" (fun _ -> 1);
    gc "violations" (fun c -> c.violations);
    gc "restarts" (fun c -> c.counts.restarts);
    retrace "rescans" (fun c -> c.counts.rescans);
    retrace "enqueues" (fun c -> c.counts.enqueued);
    retrace "repair_enqueues" (fun c -> c.counts.repair_enqueues);
    retrace "budget_overflows" (fun c -> c.counts.budget_overflows);
    pacer "assists" (fun s -> s.p_assists);
    pacer "degraded_entries" (fun s -> s.p_degraded_entries);
    pacer "degraded_cycles" (fun s -> s.p_degraded_cycles);
    pacer "hard_stops" (fun s -> if s.p_hard_stop = None then 0 else 1);
    chaos "spawns" (fun s -> s.spawns);
    chaos "damage_stores" (fun s -> s.damage_stores);
    chaos "skipped_barriers" (fun s -> s.skipped_barriers);
    chaos "preempted_increments" (fun s -> s.preempted_increments);
    chaos "pressure_remarks" (fun s -> s.pressure_remarks);
    chaos "class_loads" (fun s -> s.class_loads);
    chaos "spike_allocs" (fun s -> s.spike_allocs);
    chaos "ramp_allocs" (fun s -> s.ramp_allocs);
  ]

(* final values: the last run with a pacer, and for the live size the
   last one that ended a cycle *)
let gauges (reports : Jrt.Runner.report list) =
  let last p =
    List.find_map
      (fun (r : Jrt.Runner.report) -> Option.bind r.pacer p)
      (List.rev reports)
  in
  let any = last Option.some in
  let value f = Option.fold ~none:0.0 ~some:f in
  [
    ("pacer.goal", value (fun (s : Jrt.Pacer.stats) -> s.p_goal) any);
    ( "pacer.live_units",
      value
        (fun (s : Jrt.Pacer.stats) -> float_of_int s.p_last_live_units)
        (last (fun (s : Jrt.Pacer.stats) ->
             if s.p_cycles > 0 then Some s else None)) );
    ( "pacer.trigger_units",
      value (fun (s : Jrt.Pacer.stats) -> float_of_int s.p_trigger_units) any
    );
  ]

let pass seconds =
  Obj
    [
      ("count", Int 1);
      ("sum", Float seconds);
      ("min", Float seconds);
      ("max", Float seconds);
    ]

let render ?chaos (c : Satb_core.Driver.compiled) reports =
  Obj
    [
      ( "counters",
        Obj
          (List.map
             (fun (k, v) -> (k, Int v))
             (List.sort compare (analysis c @ runtime ?chaos reports))) );
      ("gauges", Obj (List.map (fun (k, v) -> (k, Float v)) (gauges reports)));
      ( "histograms",
        Obj
          [
            ("compile.analysis_s", pass c.analysis_seconds);
            ("compile.inline_s", pass c.inline_seconds);
            ("compile.summary_s", pass c.summary_seconds);
          ] );
    ]
