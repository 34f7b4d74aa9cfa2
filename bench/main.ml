(* Benchmark / reproduction driver.

   `dune exec bench/main.exe` regenerates every table and figure of the
   paper and every experiment after it (E1-E19, see EXPERIMENTS.md).

   `dune exec bench/main.exe -- table1 fig2 ...` runs a subset; an
   unknown name is a usage error.  `-- --json` additionally writes the
   BENCH_*.json machine-readable artifacts.  Timing lives in bench/perf,
   whose gated metrics cover the compile and run calls. *)

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

let usage =
  Printf.sprintf
    "usage: bench [--engine interp|threaded] [--json] [EXPERIMENT...]\n\
    \       bench diff OLD.json NEW.json [THRESHOLDS]\n\
     experiments: %s"
    (String.concat " " (List.map (fun (name, _, _) -> name) experiments))

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
  let json = List.mem "--json" args in
  let selected = List.filter (fun a -> a <> "--json") args in
  (match
     List.filter
       (fun a -> not (List.exists (fun (name, _, _) -> name = a) experiments))
       selected
   with
  | [] -> ()
  | unknown ->
      Printf.eprintf "bench: unknown experiment %s\n%s\n"
        (String.concat ", " unknown) usage;
      exit 2);
  let wanted name = selected = [] || List.mem name selected in
  List.iter
    (fun (name, title, print) ->
      if wanted name then begin
        Printf.printf "== %s: %s ==\n%!" name title;
        print ();
        print_newline ()
      end)
    experiments;
  if json then emit_json ()
