(** E12 — interprocedural callee summaries vs the inline limit.

    The paper ties analysis effectiveness to the inliner: Figure 2 shows
    the elimination rate collapsing as the inline limit shrinks, because
    every surviving [Invoke] havocs the abstract state.  The summary
    engine ({!Satb_core.Summary}) decouples the two — callee effects are
    applied from compositional summaries instead — so this experiment
    re-runs the Figure 2 sweep with summaries off and on.  The headline
    is the limit-0 column: with inlining disabled entirely, summaries
    must recover elisions the havoc transfer cannot (and may never lose
    one — the summary transfer refines havoc pointwise).

    Summary-dependent elisions rest on the closed-world assumption, so
    the second half is a chaos sweep: class-load faults (alone, mixed
    with late spawns, and inside seeded benign plans) against
    summary-compiled workloads with guards wired.  The [Closed_world]
    revocation must patch the dependent sites back before the snapshot
    can break: every run violation-free. *)

let limits = [ 0; 25; 50; 100 ]

type point = {
  bench : string;
  limit : int;
  static_off : int;
  static_on : int;
  elim_off : float;
  elim_on : float;
  sum_methods : int;
  sum_havoced : int;
}

type chaos_row = {
  c_bench : string;
  c_plan : string;
  c_seed : int;
  c_violations : int;
  c_revocations : int;
  c_revoked_sites : int;
  c_class_loads : int;
}

let pct num den =
  if den = 0 then 0.0 else 100.0 *. float_of_int num /. float_of_int den

let measure_one (w : Workloads.Spec.t) ~limit : point =
  let off = Exp.compile ~inline_limit:limit ~summaries:false w in
  let on = Exp.compile ~inline_limit:limit ~summaries:true w in
  let stat cw = (Satb_core.Driver.static_stats cw.Exp.compiled).elided_sites in
  let elim cw =
    let r = Exp.run cw in
    pct r.Jrt.Runner.dyn.elided_execs r.Jrt.Runner.dyn.total_execs
  in
  let sum_methods, sum_havoced =
    match on.Exp.compiled.summaries with
    | Some tbl -> (Satb_core.Summary.n_methods tbl, Satb_core.Summary.n_havoced tbl)
    | None -> (0, 0)
  in
  {
    bench = w.name;
    limit;
    static_off = stat off;
    static_on = stat on;
    elim_off = elim off;
    elim_on = elim on;
    sum_methods;
    sum_havoced;
  }

let measure () : point list =
  List.concat_map
    (fun w -> List.map (fun limit -> measure_one w ~limit) limits)
    Workloads.Registry.table1

let to_json (points : point list) : Telemetry.json =
  Telemetry.List
    (List.map
       (fun p ->
         Telemetry.Obj
           [
             ("benchmark", Str p.bench);
             ("inline_limit", Int p.limit);
             ("static_elided_havoc", Int p.static_off);
             ("static_elided_summaries", Int p.static_on);
             ("elim_pct_havoc", Float p.elim_off);
             ("elim_pct_summaries", Float p.elim_on);
             ("summary_methods", Int p.sum_methods);
             ("summary_havoced", Int p.sum_havoced);
           ])
       points)

(** The chaos sweep: summary-compiled at inline limit 0, guards wired,
    plain SATB collector.  [seeded] exercises {!Jrt.Chaos.of_seed}'s
    benign mix (which may or may not include a class load). *)
let chaos_plans ~seed : (string * Jrt.Chaos.plan) list =
  [
    ( "class-load",
      {
        Jrt.Chaos.seed;
        faults = [ Jrt.Chaos.Class_load { at_instr = 800 } ];
        quantum = None;
        gc_period = None;
      } );
    ( "load+spawn",
      {
        Jrt.Chaos.seed;
        faults =
          [
            Jrt.Chaos.Class_load { at_instr = 600 };
            Jrt.Chaos.Late_spawn { at_instr = 1000; stores = 3 };
          ];
        quantum = None;
        gc_period = None;
      } );
    ("seeded", Jrt.Chaos.of_seed seed);
  ]

let measure_chaos ?(seeds = [ 1; 2; 3 ]) () : chaos_row list =
  let compiled =
    List.map
      (fun w -> Exp.compile ~inline_limit:0 ~summaries:true w)
      Workloads.Registry.table1
  in
  List.concat_map
    (fun seed ->
      List.concat_map
        (fun (plan_name, plan) ->
          List.map
            (fun (cw : Exp.compiled_workload) ->
              let chaos = Jrt.Chaos.create plan in
              let r =
                Exp.run
                  ~gc:(Jrt.Runner.make_satb
                    ~pacing:(Jrt.Pacer.config_of_trigger 24) ())
                  ~guards:true ~chaos ~fail_on_thread_error:false ~seed cw
              in
              let violations =
                match r.gc with Some g -> g.total_violations | None -> 0
              in
              let s = Jrt.Chaos.stats chaos in
              {
                c_bench = cw.Exp.workload.name;
                c_plan = plan_name;
                c_seed = seed;
                c_violations = violations;
                c_revocations = r.machine.Jrt.Interp.revocation_events;
                c_revoked_sites = r.machine.Jrt.Interp.revoked_sites;
                c_class_loads = s.Jrt.Chaos.class_loads;
              })
            compiled)
        (chaos_plans ~seed))
    seeds

let render (points : point list) : string =
  let buf = Buffer.create 1024 in
  let benches =
    List.sort_uniq compare (List.map (fun p -> p.bench) points)
  in
  List.iter
    (fun bench ->
      let mine = List.filter (fun p -> p.bench = bench) points in
      (match mine with
      | p :: _ ->
          Buffer.add_string buf
            (Printf.sprintf "%s (summaries: %d methods, %d havoced):\n" bench
               p.sum_methods p.sum_havoced)
      | [] -> ());
      let rows =
        List.map
          (fun p ->
            [
              string_of_int p.limit;
              string_of_int p.static_off;
              string_of_int p.static_on;
              Tablefmt.f1 p.elim_off;
              Tablefmt.f1 p.elim_on;
            ])
          (List.sort (fun a b -> compare a.limit b.limit) mine)
      in
      Buffer.add_string buf
        (Tablefmt.render
           ~header:
             [
               "inline limit";
               "elided (havoc)";
               "elided (summ)";
               "elim% (havoc)";
               "elim% (summ)";
             ]
           ~align:[ Tablefmt.R; R; R; R; R ]
           rows);
      Buffer.add_string buf "\n\n")
    benches;
  Buffer.contents buf

let render_chaos (rows : chaos_row list) : string =
  let body =
    List.map
      (fun r ->
        [
          r.c_plan;
          r.c_bench;
          string_of_int r.c_seed;
          string_of_int r.c_violations;
          string_of_int r.c_class_loads;
          string_of_int r.c_revocations;
          string_of_int r.c_revoked_sites;
        ])
      rows
  in
  Tablefmt.render
    ~header:
      [
        "plan";
        "benchmark";
        "seed";
        "violations";
        "class loads";
        "revocations";
        "sites";
      ]
    ~align:[ Tablefmt.L; L; R; R; R; R; R ]
    body

let print (points : point list) =
  print_endline (render points);
  let gained =
    List.filter (fun p -> p.limit = 0 && p.static_on > p.static_off) points
  in
  Printf.printf
    "limit 0: summaries add elided sites on %d/%d benchmarks (+%d sites \
     total)\n\n"
    (List.length gained)
    (List.length (List.filter (fun p -> p.limit = 0) points))
    (List.fold_left (fun a p -> a + p.static_on - p.static_off) 0 gained);
  print_endline
    "closed-world chaos (every row must show 0 violations; class loads \
     revoke):";
  print_endline (render_chaos (measure_chaos ()))
