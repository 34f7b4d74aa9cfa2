(* Benchmark / reproduction driver.

   `dune exec bench/main.exe` regenerates every table and figure of the
   paper and every experiment after it (E1-E19, see EXPERIMENTS.md).

   `dune exec bench/main.exe -- table1 fig2 ...` runs a subset; an
   unknown name is a usage error.  `-- --json` additionally writes every
   BENCH_*.json machine-readable artifact, serialized from the same
   measurement the tables print.  Timing lives in bench/perf, whose gated
   metrics cover the compile and run calls. *)

(* An experiment measured once: [run] measures it and returns how to
   print what it measured and, for an experiment with a BENCH file, that
   file's tables, serialized from the same rows. *)
type measured = {
  print : unit -> unit;
  tables : (string * Telemetry.json) list;
}

(* an experiment without a BENCH file measures as it prints *)
let printed print () = { print; tables = [] }

(* an experiment measured into one BENCH table *)
let one table measure print to_json () =
  let rows = measure () in
  { print = (fun () -> print rows); tables = [ (table, to_json rows) ] }

let experiments =
  [
    ( "table1",
      "Table 1: dynamic barrier elimination",
      Some "BENCH_table1.json",
      one "table1" Harness.Table1.rows
        (fun rows -> print_endline (Harness.Table1.render rows))
        Harness.Table1.to_json );
    ( "table2",
      "Table 2: jbb end-to-end barrier cost",
      Some "BENCH_table2.json",
      one "table2" Harness.Table2.measure
        (fun rows -> print_endline (Harness.Table2.render rows))
        Harness.Table2.to_json );
    ( "fig2",
      "Figure 2: inline limit vs effectiveness and compile time",
      None,
      printed Harness.Fig2.print );
    ( "fig3",
      "Figure 3: effect on compiled code size",
      None,
      printed Harness.Fig3.print );
    ( "pause",
      "E5: SATB vs incremental-update final pause",
      Some "BENCH_pause.json",
      one "pause" Harness.Pause.measure
        (fun rows -> print_endline (Harness.Pause.render rows))
        Harness.Pause.to_json );
    ( "nullsame",
      "E6: null-or-same extension",
      None,
      printed Harness.Nullsame.print );
    ( "static",
      "E7: static elimination counts",
      None,
      printed Harness.Static_counts.print );
    ( "movedown",
      "E8: move-down (delete-by-shift) elision",
      None,
      printed Harness.Movedown.print );
    ( "ablation",
      "E9: design-choice ablations",
      None,
      printed Harness.Ablation.print );
    ( "retrace",
      "E10: pairwise-swap elision under the retrace collector",
      None,
      printed Harness.Retrace.print );
    ( "revoke",
      "E11: guarded elision under chaos fault injection",
      None,
      printed Harness.Revoke.print );
    ( "summaries",
      "E12: interprocedural callee summaries vs the inline limit",
      Some "BENCH_fig2.json",
      one "fig2_summaries" Harness.Summaries.measure Harness.Summaries.print
        Harness.Summaries.to_json );
    ( "profile",
      "E14: per-site hot-path attribution, plain vs full analysis on db",
      Some "BENCH_profile.json",
      one "profile" Harness.Profiler.measure
        (fun r -> print_endline (Harness.Profiler.render r))
        Harness.Profiler.to_json );
    ( "hybrid",
      "E15: hybrid write barrier, per-collector per-half elision + chaos \
       soundness",
      Some "BENCH_hybrid.json",
      fun () ->
        let rows = Harness.Hybrid.measure () in
        let chaos = Harness.Hybrid.measure_chaos () in
        {
          print = (fun () -> Harness.Hybrid.print rows chaos);
          tables =
            [
              ("hybrid", Harness.Hybrid.to_json rows);
              ("hybrid_chaos", Harness.Hybrid.chaos_to_json chaos);
            ];
        } );
    ( "pacing",
      "E16: GC pacing sweep — goals, soft limits, auto-tuning + chaos \
       allocation faults",
      Some "BENCH_pacing.json",
      fun () ->
        let rows = Harness.Pacing.measure () in
        let summary = Harness.Pacing.summarize rows in
        let chaos = Harness.Pacing.measure_chaos () in
        {
          print = (fun () -> Harness.Pacing.print rows summary chaos);
          tables =
            [
              ("pacing", Harness.Pacing.to_json rows);
              ("pacing_summary", Harness.Pacing.summary_to_json summary);
              ("pacing_chaos", Harness.Pacing.chaos_to_json chaos);
            ];
        } );
    ( "engines",
      "E17: direct-threaded engine vs interpreter — steps/sec and \
       state-equality across the Table 1 workloads",
      Some "BENCH_engines.json",
      one "engines" Harness.Engines.measure Harness.Engines.print
        Harness.Engines.to_json );
    ( "flight",
      "E18: flight recorder — chaos-run timeline walkthrough and \
       always-on overhead (<2% gated)",
      Some "BENCH_flight.json",
      one "flight" Harness.Flightexp.measure Harness.Flightexp.print
        Harness.Flightexp.to_json );
    ( "heap",
      "E19: heap-state observatory — allocation-site census, dominator \
       retention, barrier-float accounting (<3% overhead gated)",
      Some "BENCH_heap.json",
      fun () ->
        let rows = Harness.Heapexp.measure () in
        let overhead = Harness.Heapexp.measure_overhead () in
        {
          print = (fun () -> Harness.Heapexp.print rows overhead);
          tables =
            [
              ("heap", Harness.Heapexp.to_json rows);
              ("heap_overhead", Harness.Heapexp.overhead_to_json overhead);
            ];
        } );
  ]

(* --- machine-readable artifacts (--json) ------------------------------ *)

(* Every artifact carries the table-file schema version so the gate
   refuses to compare baselines written at a different layout. *)
let write_artifact path tables =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc
        (Telemetry.json_to_string_pretty
           (Telemetry.Obj
              (( "schema_version",
                 Telemetry.Int Profile.Gate.bench_schema_version )
              :: tables))
        ^ "\n"));
  Printf.printf "wrote %s\n%!" path

(* --- regression gate (`bench diff OLD.json NEW.json`) ----------------- *)

let diff_usage = "usage: bench diff OLD.json NEW.json"

let run_diff (args : string list) : unit =
  match args with
  | [ old_path; new_path ] -> (
      match Profile.Gate.diff_files ~old_path new_path with
      | Error e ->
          Printf.eprintf "bench diff: %s\n" e;
          exit 2
      | Ok o ->
          print_string (Profile.Gate.render o);
          if Profile.Gate.regressed o then exit 1)
  | _ ->
      prerr_endline diff_usage;
      exit 2

let usage =
  Printf.sprintf
    "usage: bench [--engine interp|threaded] [--json] [EXPERIMENT...]\n\
    \       bench diff OLD.json NEW.json\n\
     experiments: %s"
    (String.concat " " (List.map (fun (name, _, _, _) -> name) experiments))

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
       (fun a ->
         not (List.exists (fun (name, _, _, _) -> name = a) experiments))
       selected
   with
  | [] -> ()
  | unknown ->
      Printf.eprintf "bench: unknown experiment %s\n%s\n"
        (String.concat ", " unknown) usage;
      exit 2);
  let wanted name = selected = [] || List.mem name selected in
  (* each experiment is measured at most once; under --json every BENCH
     file is written, whichever experiments were named, from the same
     measurement the named ones print *)
  let written =
    List.filter_map
      (fun (name, title, artifact, run) ->
        let artifact = if json then artifact else None in
        if wanted name then Printf.printf "== %s: %s ==\n%!" name title;
        if wanted name || artifact <> None then begin
          let m = run () in
          if wanted name then begin
            m.print ();
            print_newline ()
          end;
          Option.map (fun path -> (path, m.tables)) artifact
        end
        else None)
      experiments
  in
  List.iter (fun (path, tables) -> write_artifact path tables) written
