(* Benchmark / reproduction driver.

   `dune exec bench/main.exe` regenerates every table and figure of the
   paper (E1-E7, see DESIGN.md) and then runs a bechamel microbenchmark
   suite with one Test.make per table/figure, timing the code that
   produces each artifact.

   `dune exec bench/main.exe -- table1 fig2 ...` runs a subset;
   `-- quick` skips the bechamel suite; `-- --json` additionally writes
   BENCH_table1.json / BENCH_table2.json machine-readable artifacts. *)

let experiments =
  [
    ("table1", "Table 1: dynamic barrier elimination", Harness.Table1.print);
    ("table2", "Table 2: jbb end-to-end barrier cost", Harness.Table2.print);
    ( "fig2",
      "Figure 2: inline limit vs effectiveness and compile time",
      Harness.Fig2.print );
    ("fig3", "Figure 3: effect on compiled code size", Harness.Fig3.print);
    ("pause", "E5: SATB vs incremental-update final pause", Harness.Pause.print);
    ("nullsame", "E6: null-or-same extension", Harness.Nullsame.print);
    ("static", "E7: static elimination counts", Harness.Static_counts.print);
    ( "movedown",
      "E8: move-down (delete-by-shift) elision",
      Harness.Movedown.print );
    ("ablation", "E9: design-choice ablations", Harness.Ablation.print);
    ( "retrace",
      "E10: pairwise-swap elision under the retrace collector",
      Harness.Retrace.print );
    ( "revoke",
      "E11: guarded elision under chaos fault injection",
      Harness.Revoke.print );
    ( "summaries",
      "E12: interprocedural callee summaries vs the inline limit",
      Harness.Summaries.print );
    ( "profile",
      "E14: per-site hot-path attribution, plain vs full analysis on db",
      Harness.Profiler.print );
    ( "hybrid",
      "E15: hybrid write barrier, per-collector per-half elision + chaos \
       soundness",
      Harness.Hybrid.print );
    ( "pacing",
      "E16: GC pacing sweep — goals, soft limits, auto-tuning + chaos \
       allocation faults",
      Harness.Pacing.print );
    ( "engines",
      "E17: direct-threaded engine vs interpreter — steps/sec and \
       state-equality across the Table 1 workloads",
      Harness.Engines.print );
    ( "flight",
      "E18: flight recorder — chaos-run timeline walkthrough and \
       always-on overhead (<2% gated)",
      Harness.Flightexp.print );
    ( "heap",
      "E19: heap-state observatory — allocation-site census, dominator \
       retention, barrier-float accounting (<3% overhead gated)",
      Harness.Heapexp.print );
  ]

(* --- machine-readable artifacts (--json) ------------------------------ *)

let write_file path content =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc content);
  Printf.printf "wrote %s\n%!" path

(* The artifacts are serialized from the telemetry row tables the measure
   functions populate, so the rendered tables, the harness output and the
   BENCH_*.json files all share one source of truth. *)
let emit_json () =
  (* every artifact carries the table-file schema version so the gate
     refuses to compare baselines written at a different layout *)
  let emit path tables =
    write_file path
      (Telemetry.json_to_string_pretty
         (Telemetry.Obj
            (( "schema_version",
               Telemetry.Int Profile.Gate.bench_schema_version )
            :: List.map (fun t -> (t, Telemetry.table_to_json t)) tables))
      ^ "\n")
  in
  ignore (Harness.Table1.rows ());
  emit "BENCH_table1.json" [ "table1" ];
  ignore (Harness.Table2.measure ());
  emit "BENCH_table2.json" [ "table2" ];
  ignore (Harness.Summaries.measure ());
  emit "BENCH_fig2.json" [ "fig2_summaries" ];
  ignore (Harness.Pause.measure ());
  emit "BENCH_pause.json" [ "pause" ];
  ignore (Harness.Profiler.measure ());
  emit "BENCH_profile.json" [ "profile" ];
  ignore (Harness.Hybrid.measure ());
  ignore (Harness.Hybrid.measure_chaos ());
  emit "BENCH_hybrid.json" [ "hybrid"; "hybrid_chaos" ];
  ignore (Harness.Pacing.summarize (Harness.Pacing.measure ()));
  ignore (Harness.Pacing.measure_chaos ());
  emit "BENCH_pacing.json" [ "pacing"; "pacing_summary"; "pacing_chaos" ];
  ignore (Harness.Engines.measure ());
  emit "BENCH_engines.json" [ "engines" ];
  ignore (Harness.Flightexp.measure ());
  emit "BENCH_flight.json" [ "flight" ];
  ignore (Harness.Heapexp.measure ());
  ignore (Harness.Heapexp.measure_overhead ());
  emit "BENCH_heap.json" [ "heap"; "heap_overhead" ]

(* --- regression gate (`bench diff OLD.json NEW.json`) ----------------- *)

let diff_usage =
  "usage: bench diff OLD.json NEW.json [--max-elision-drop POINTS] \
   [--max-pause-increase PCT] [--max-cost-increase PCT] [--max-mmu-drop ABS]"

let run_diff (args : string list) : unit =
  let float_arg flag v k =
    match float_of_string_opt v with
    | Some f -> k f
    | None ->
        Printf.eprintf "bench diff: %s expects a number, got %S\n" flag v;
        exit 2
  in
  let rec parse th files = function
    | [] -> (th, List.rev files)
    | "--max-elision-drop" :: v :: rest ->
        float_arg "--max-elision-drop" v (fun f ->
            parse { th with Profile.Gate.max_elision_drop = f } files rest)
    | "--max-pause-increase" :: v :: rest ->
        float_arg "--max-pause-increase" v (fun f ->
            parse { th with Profile.Gate.max_pause_increase_pct = f } files rest)
    | "--max-cost-increase" :: v :: rest ->
        float_arg "--max-cost-increase" v (fun f ->
            parse { th with Profile.Gate.max_cost_increase_pct = f } files rest)
    | "--max-mmu-drop" :: v :: rest ->
        float_arg "--max-mmu-drop" v (fun f ->
            parse { th with Profile.Gate.max_mmu_drop = f } files rest)
    | a :: rest when String.length a > 0 && a.[0] <> '-' ->
        parse th (a :: files) rest
    | a :: _ ->
        Printf.eprintf "bench diff: unknown flag %s\n%s\n" a diff_usage;
        exit 2
  in
  match parse Profile.Gate.default_thresholds [] args with
  | thresholds, [ old_path; new_path ] -> (
      match Profile.Gate.diff_files ~thresholds ~old_path new_path with
      | Error e ->
          Printf.eprintf "bench diff: %s\n" e;
          exit 2
      | Ok o ->
          print_string (Profile.Gate.render o);
          if Profile.Gate.regressed o then begin
            Printf.printf "FAIL: %d regression(s)\n"
              (List.length o.Profile.Gate.o_regressions);
            exit 1
          end
          else print_endline "OK: no regressions")
  | _ ->
      prerr_endline diff_usage;
      exit 2

(* --- bechamel microbenchmarks: one Test.make per table/figure --------- *)

open Bechamel
open Toolkit

let compile_all ?(mode = Satb_core.Analysis.A) ?(null_or_same = false)
    ?(inline_limit = 100) () =
  List.iter
    (fun w -> ignore (Harness.Exp.compile ~inline_limit ~mode ~null_or_same w))
    Workloads.Registry.table1

let bench_tests =
  Test.make_grouped ~name:"satb-wbe"
    [
      (* Table 1's cost is the full field+array analysis over every
         benchmark at inline limit 100 *)
      Test.make ~name:"table1/analyze-A-100"
        (Staged.stage (fun () -> compile_all ()));
      (* Table 2 is dominated by the instrumented jbb run *)
      Test.make ~name:"table2/run-jbb-always-log"
        (Staged.stage (fun () ->
             let cw = Harness.Exp.compile Workloads.Jbb.t in
             ignore
               (Harness.Exp.run ~satb_mode:Jrt.Barrier_cost.Always_log cw)));
      (* Figure 2's most expensive point: inline limit 200, mode A *)
      Test.make ~name:"fig2/analyze-A-200"
        (Staged.stage (fun () -> compile_all ~inline_limit:200 ()));
      (* Figure 2's cheapest analysis: field-only at limit 100 *)
      Test.make ~name:"fig2/analyze-F-100"
        (Staged.stage (fun () -> compile_all ~mode:Satb_core.Analysis.F ()));
      (* Figure 3 is the code-size model over B/F/A compiles *)
      Test.make ~name:"fig3/code-size-BFA"
        (Staged.stage (fun () ->
             List.iter
               (fun mode -> compile_all ~mode ())
               [ Satb_core.Analysis.B; F; A ]));
      (* E5: one full SATB cycle on jess *)
      Test.make ~name:"pause/satb-jess"
        (Staged.stage (fun () ->
             let cw = Harness.Exp.compile Workloads.Jess.t in
             ignore
               (Harness.Exp.run
                  ~gc:(Jrt.Runner.make_satb
                    ~pacing:(Jrt.Pacer.config_of_trigger 64) ())
                  cw)));
      (* E6: analysis with the null-or-same extension enabled *)
      Test.make ~name:"nullsame/analyze-A+nos"
        (Staged.stage (fun () -> compile_all ~null_or_same:true ()));
      (* E8: analysis with the move-down extension enabled *)
      Test.make ~name:"movedown/analyze-A+md"
        (Staged.stage (fun () ->
             ignore (Harness.Exp.compile ~move_down:true Workloads.Jbb.t)));
      (* E10: db under the retrace collector with swap elision *)
      Test.make ~name:"retrace/run-db-swap"
        (Staged.stage (fun () ->
             let cw =
               Harness.Exp.compile ~move_down:true ~swap:true Workloads.Db.t
             in
             ignore
               (Harness.Exp.run
                  ~gc:(Jrt.Runner.make_retrace
                    ~pacing:(Jrt.Pacer.config_of_trigger 24) ())
                  cw)));
      (* E11: db under a late-spawn fault plan with guards wired, so the
         timing includes revocation and snapshot repair *)
      Test.make ~name:"revoke/run-db-late-spawn"
        (Staged.stage (fun () ->
             let cw =
               Harness.Exp.compile ~move_down:true ~swap:true Workloads.Db.t
             in
             let chaos =
               Jrt.Chaos.create
                 {
                   Jrt.Chaos.seed = 1;
                   faults =
                     [ Jrt.Chaos.Late_spawn { at_instr = 1000; stores = 4 } ];
                   quantum = None;
                   gc_period = None;
                 }
             in
             ignore
               (Harness.Exp.run
                  ~gc:(Jrt.Runner.make_retrace
                    ~pacing:(Jrt.Pacer.config_of_trigger 24) ())
                  ~guards:true ~chaos ~fail_on_thread_error:false cw)));
      (* E12: summary construction + summary-aware analysis, no inlining *)
      Test.make ~name:"summaries/analyze-A-0+sum"
        (Staged.stage (fun () ->
             List.iter
               (fun w ->
                 ignore
                   (Harness.Exp.compile ~inline_limit:0 ~summaries:true w))
               Workloads.Registry.table1));
      (* E9: the cheapest ablation (single-name, no strong updates) *)
      Test.make ~name:"ablation/analyze-1-name"
        (Staged.stage (fun () ->
             List.iter
               (fun w ->
                 ignore
                   (Satb_core.Driver.compile ~inline_limit:100
                      ~conf:(Harness.Ablation.conf_of Harness.Ablation.One_name)
                      (Workloads.Spec.parse w)))
               Workloads.Registry.table1));
    ]

let run_bechamel () =
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:(Some 10) ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let raw = Benchmark.all cfg instances bench_tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let merged = Analyze.merge ols instances results in
  Hashtbl.iter
    (fun measure tbl ->
      Printf.printf "\n%s (ns/run):\n" measure;
      let rows =
        Hashtbl.fold
          (fun name ols acc ->
            let est =
              match Analyze.OLS.estimates ols with
              | Some (e :: _) -> Printf.sprintf "%.0f" e
              | Some [] | None -> "-"
            in
            (name, est) :: acc)
          tbl []
        |> List.sort compare
      in
      List.iter (fun (n, e) -> Printf.printf "  %-32s %12s\n" n e) rows)
    merged

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | "diff" :: rest -> run_diff rest
  | _ ->
  (* `--engine threaded` retargets every experiment's runtime onto the
     compiled engine (the CI both-engines lever); default is interp *)
  let rec extract_engine acc = function
    | [] -> (None, List.rev acc)
    | "--engine" :: v :: rest -> (Some v, List.rev_append acc rest)
    | a :: rest -> extract_engine (a :: acc) rest
  in
  let engine, args = extract_engine [] args in
  (match engine with
  | None | Some "interp" -> ()
  | Some "threaded" -> Harness.Exp.default_engine := `Threaded
  | Some other ->
      Printf.eprintf "bench: --engine expects interp|threaded, got %S\n" other;
      exit 2);
  let quick = List.mem "quick" args in
  let json = List.mem "--json" args in
  let selected = List.filter (fun a -> a <> "quick" && a <> "--json") args in
  let wanted name = selected = [] || List.mem name selected in
  List.iter
    (fun (name, title, print) ->
      if wanted name then begin
        Printf.printf "== %s: %s ==\n%!" name title;
        print ();
        print_newline ()
      end)
    experiments;
  if json then emit_json ();
  if (not quick) && (selected = [] || List.mem "bechamel" selected) then begin
    Printf.printf "== bechamel: per-artifact timing ==\n%!";
    run_bechamel ()
  end
