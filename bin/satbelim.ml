(** satbelim — command-line front end.

    Subcommands:
    Input files ending in [.java] or [.mj] are compiled from mini-Java
    (see doc/minijava.md); anything else is parsed as jasm assembly.

    - [verify FILE]  — assemble and verify a program
    - [disasm FILE]  — assemble, inline, and print the expanded program
    - [analyze FILE] — run the barrier-removal analysis; print per-site
      verdicts and static statistics
    - [run FILE]     — interpret the program under a chosen collector and
      print dynamic barrier statistics
    - [profile FILE | --workload NAME] — run and report per-site barrier
      attribution, pause percentiles and MMU; [--json] saves the profile,
      [--baseline] gates against a saved one *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load path =
  let minijava =
    Filename.check_suffix path ".java" || Filename.check_suffix path ".mj"
  in
  try
    if minijava then Ok (Jsrc.Compile.compile_source (read_file path))
    else Ok (Jir.Parser.parse_linked (read_file path))
  with
  | Jir.Parser.Parse_error _ as e -> Error (Fmt.str "%a" Jir.Parser.pp_error e)
  | (Jsrc.Jparser.Parse_error _ | Jsrc.Jlexer.Lex_error _ | Jsrc.Compile.Type_error _)
    as e ->
      Error (Fmt.str "%a" Jsrc.Compile.pp_error e)
  | Jir.Program.Link_error msg -> Error msg
  | Sys_error msg -> Error msg

(* common args *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"jasm source file")

let inline_limit_arg =
  Arg.(
    value
    & opt int 100
    & info [ "inline-limit" ] ~docv:"N"
        ~doc:"Maximum callee size (instructions) to inline; 0 disables.")

let mode_arg =
  let mode_conv =
    Arg.conv
      ~docv:"MODE"
      ( (fun s ->
          match Satb_core.Analysis.mode_of_string s with
          | Some m -> Ok m
          | None -> Error (`Msg "expected B, F or A")),
        fun ppf m -> Fmt.string ppf (Satb_core.Analysis.string_of_mode m) )
  in
  Arg.(
    value
    & opt mode_conv Satb_core.Analysis.A
    & info [ "mode" ] ~docv:"MODE"
        ~doc:"Analysis mode: B (none), F (fields), A (fields+arrays).")

let nos_arg =
  Arg.(
    value & flag
    & info [ "null-or-same" ] ~doc:"Enable the null-or-same extension (§4.3).")

let movedown_arg =
  Arg.(
    value & flag
    & info [ "move-down" ]
        ~doc:
          "Enable the move-down (delete-by-shift) elision (§4.3); only \
           applied to single-mutator programs and requires the SATB \
           collector's descending array scan.")

let swap_arg =
  Arg.(
    value & flag
    & info [ "swap" ]
        ~doc:
          "Enable the pairwise-swap elision (§4.3); only applied to \
           single-mutator programs and only sound under the retrace \
           collector's tracing-state protocol (--gc retrace).")

let summaries_arg =
  Arg.(
    value & flag
    & info [ "summaries" ]
        ~doc:
          "Consult interprocedural callee summaries at non-inlined calls \
           instead of the blanket havoc; elisions that depend on a \
           summary are guarded by the closed-world assumption and revoke \
           if a class load is observed.")

let debug_arg =
  Arg.(value & flag & info [ "debug" ] ~doc:"Trace abstract states on stderr.")

let conf_of mode nos md swap summaries debug =
  {
    Satb_core.Analysis.default_config with
    mode;
    null_or_same = nos;
    move_down = md;
    swap;
    summaries;
    debug;
  }

let or_die = function
  | Ok v -> v
  | Error msg ->
      Fmt.epr "satbelim: %s@." msg;
      exit 1

(** Load and verify a program; a program the verifier rejects is reported
    one diagnostic per line, exit 1. *)
let load_verified path =
  let prog = or_die (load path) in
  match Jir.Verifier.verify_program prog with
  | Ok () -> prog
  | Error errs ->
      List.iter (fun e -> Fmt.epr "%a@." Jir.Verifier.pp_error e) errs;
      exit 1

(* telemetry plumbing shared by analyze and run *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Stream telemetry events (GC phases, revocations, chaos faults, \
           analysis passes) to $(docv) as JSON lines.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write the final metrics snapshot (all counters, gauges and \
           histograms, sorted) to $(docv) as JSON.")

let chrome_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "chrome-trace" ] ~docv:"FILE"
        ~doc:
          "Also export the event stream as a Chrome trace-event file \
           (load in about://tracing or Perfetto).")

(** Run [f] with the requested telemetry outputs armed; the files are
    written however [f] exits.  The registry is reset first so the
    snapshot covers exactly this invocation. *)
let with_telemetry ~trace ~metrics ~chrome f =
  Telemetry.reset ();
  let sink = Option.map open_out trace in
  Option.iter Telemetry.attach_sink sink;
  if chrome <> None then Telemetry.set_recording true;
  Fun.protect f ~finally:(fun () ->
      Telemetry.detach_sink ();
      Option.iter close_out sink;
      Option.iter Telemetry.write_metrics metrics;
      Option.iter Telemetry.write_chrome chrome)

(* verify *)

let verify_cmd =
  let run file =
    ignore (load_verified file);
    Fmt.pr "%s: OK@." file
  in
  Cmd.v (Cmd.info "verify" ~doc:"Assemble and verify a jasm program")
    Term.(const run $ file_arg)

(* disasm *)

let disasm_cmd =
  let run file limit =
    let prog = load_verified file in
    let inlined =
      Satb_core.Inliner.inline_program ~conf:(Satb_core.Inliner.config limit)
        prog
    in
    Fmt.pr "%a@." Jir.Pp.pp_program (Jir.Program.program inlined)
  in
  Cmd.v
    (Cmd.info "disasm" ~doc:"Print the program after inline expansion")
    Term.(const run $ file_arg $ inline_limit_arg)

(* analyze *)

let analyze_cmd =
  let run file limit mode nos md swap summaries debug verbose explain trace
      metrics chrome =
    let prog = load_verified file in
    with_telemetry ~trace ~metrics ~chrome @@ fun () ->
    let compiled =
      Satb_core.Driver.compile ~inline_limit:limit
        ~conf:(conf_of mode nos md swap summaries debug) prog
    in
    if explain then begin
      (* provenance of every elided site, in site-id order *)
      List.iter
        (fun p -> Fmt.pr "%a@." Satb_core.Driver.pp_provenance p)
        (Satb_core.Driver.explanations compiled);
      Fmt.pr "@."
    end;
    List.iter
      (fun (r : Satb_core.Analysis.method_result) ->
        if r.verdicts <> [] then begin
          Fmt.pr "%s.%s:@." r.mr_class r.mr_method;
          List.iter
            (fun (v : Satb_core.Analysis.verdict) ->
              Fmt.pr "  pc %-4d %-12s %s (%s)@." v.v_pc
                (match v.v_kind with
                | Jir.Types.Field_store -> "putfield"
                | Jir.Types.Array_store -> "aastore"
                | Jir.Types.Static_store -> "putstatic")
                (if v.v_elide then "ELIDE" else "keep")
                (Satb_core.Analysis.string_of_reason v.v_reason))
            r.verdicts
        end)
      compiled.results;
    if verbose then begin
      Fmt.pr "@.%a@.analysis: %.3fs, inlining: %.3fs@."
        Satb_core.Driver.pp_static_stats
        (Satb_core.Driver.static_stats compiled)
        compiled.analysis_seconds compiled.inline_seconds;
      match compiled.summaries with
      | Some tbl ->
          Fmt.pr "summaries: %d methods (%d havoced), %.3fs@."
            (Satb_core.Summary.n_methods tbl)
            (Satb_core.Summary.n_havoced tbl)
            compiled.summary_seconds
      | None -> ()
    end
    else
      Fmt.pr "@.%a@." Satb_core.Driver.pp_static_stats
        (Satb_core.Driver.static_stats compiled)
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"More detail.") in
  let explain =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "Print the elision provenance of every removed barrier: the \
             rule that fired, the abstract facts it rests on, and the \
             runtime guards it depends on.")
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Run the barrier-removal analysis")
    Term.(
      const run $ file_arg $ inline_limit_arg $ mode_arg $ nos_arg
      $ movedown_arg $ swap_arg $ summaries_arg $ debug_arg $ verbose
      $ explain $ trace_arg $ metrics_arg $ chrome_arg)

(* run *)

let gc_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("none", `None);
             ("satb", `Satb);
             ("incr", `Incr);
             ("retrace", `Retrace);
             ("hybrid", `Hybrid);
           ])
        `Satb
    & info [ "gc" ] ~docv:"GC"
        ~doc:"Collector: none, satb, incr, retrace, or hybrid.")

let entry_arg =
  Arg.(
    value
    & opt string "Main.main"
    & info [ "entry" ] ~docv:"C.M" ~doc:"Entry method.")

(* Pacing flags, shared by `run` and `profile`.  --gc-trigger survives
   as the deprecated fixed-mode alias; the goal/limit/auto flags
   configure the {!Jrt.Pacer}.  Contradictory combinations are refused
   up front, in the same style as the capability refusals below. *)

let heap_goal_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "heap-goal" ] ~docv:"PCT"
        ~doc:
          "Heap-growth target: start the next marking cycle once the \
           live heap has grown $(docv) percent past its size at the \
           last mark end (100 doubles the heap; default 50).")

let soft_limit_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "soft-limit" ] ~docv:"UNITS"
        ~doc:
          "Soft heap limit in heap units: past it the pacer degrades \
           gracefully (boosted mark budgets, allocate-black, \
           allocation assists) instead of failing.")

let hard_limit_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "hard-limit" ] ~docv:"UNITS"
        ~doc:
          "Hard heap limit in heap units: an allocation that would \
           push the live heap past $(docv) aborts the run cleanly \
           with a diagnostic (exit 4).")

let pacer_arg =
  Arg.(
    value
    & opt
        (some (enum [ ("auto", `Auto); ("goal", `Goal); ("fixed", `Fixed) ]))
        None
    & info [ "pacer" ] ~docv:"MODE"
        ~doc:
          "Pacing mode: goal (heap-growth target, the default), auto \
           (the goal retuned every cycle from pause percentiles and \
           MMU), or fixed (the legacy --gc-trigger allocation count).")

let engine_arg =
  Arg.(
    value
    & opt (enum [ ("interp", `Interp); ("threaded", `Threaded) ]) `Interp
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Execution engine: $(b,interp) (default), the step-accurate \
           tree-walking interpreter, or $(b,threaded), the direct-threaded \
           compiled engine — same safepoint cadence, counters, collectors \
           and chaos faults, several times the steps/sec (see DESIGN.md \
           §8).  Final state and every printed counter are identical \
           either way.")

let pacing_of ~gc ~gc_trigger ~heap_goal ~soft_limit ~hard_limit ~pacer :
    Jrt.Pacer.config =
  let refuse fmt =
    Fmt.kstr
      (fun msg ->
        Fmt.epr "satbelim: %s@." msg;
        exit 1)
      fmt
  in
  (* one warning, in the one path every pacing-aware subcommand funnels
     through, and only when the flag was actually supplied — scripts that
     never pass --gc-trigger never see it *)
  if gc_trigger <> None then
    Fmt.epr
      "satbelim: warning: --gc-trigger is deprecated; prefer the default \
       heap-growth goal or --heap-goal (see --pacer)@.";
  let any_flag =
    gc_trigger <> None || heap_goal <> None || soft_limit <> None
    || hard_limit <> None || pacer <> None
  in
  if gc = `None then begin
    if any_flag then
      refuse
        "--gc none never starts a marking cycle, so pacing flags \
         (--gc-trigger/--heap-goal/--soft-limit/--hard-limit/--pacer) \
         make no sense with it";
    Jrt.Pacer.default_config
  end
  else begin
    (match (pacer, gc_trigger) with
    | Some `Fixed, None ->
        refuse "--pacer fixed needs --gc-trigger N to supply the trigger"
    | Some `Goal, Some _ ->
        refuse
          "--gc-trigger is the fixed-mode alias; it contradicts --pacer \
           goal (use --heap-goal instead)"
    | Some `Auto, Some _ ->
        refuse
          "--gc-trigger is the fixed-mode alias; it contradicts --pacer \
           auto"
    | _ -> ());
    (match (gc_trigger, heap_goal, pacer) with
    | Some _, Some _, _ ->
        refuse
          "--gc-trigger (fixed pacing) contradicts --heap-goal \
           (heap-growth pacing); pick one"
    | _, Some _, Some `Auto ->
        refuse
          "--pacer auto retunes the heap-growth goal itself; it \
           contradicts --heap-goal"
    | _ -> ());
    (match heap_goal with
    | Some pct when pct <= 0.0 ->
        refuse "--heap-goal must be a positive percentage (got %g)" pct
    | _ -> ());
    (match (soft_limit, hard_limit) with
    | Some s, _ when s <= 0 -> refuse "--soft-limit must be positive"
    | _, Some h when h <= 0 -> refuse "--hard-limit must be positive"
    | Some s, Some h when s >= h ->
        refuse
          "--soft-limit %d must be below --hard-limit %d (degradation \
           must have room to work before the abort)"
          s h
    | _ -> ());
    let mode =
      match (pacer, gc_trigger, heap_goal) with
      | Some `Fixed, Some n, _ | None, Some n, None -> Jrt.Pacer.Fixed n
      | Some `Auto, _, _ -> Jrt.Pacer.Auto
      | _, _, Some pct -> Jrt.Pacer.Goal (1.0 +. (pct /. 100.0))
      | _ -> Jrt.Pacer.default_config.Jrt.Pacer.mode
    in
    {
      Jrt.Pacer.mode;
      soft_limit;
      hard_limit;
      goal_floor = Jrt.Pacer.default_goal_floor;
    }
  end

let assumption_to_runtime :
    Satb_core.Driver.assumption -> Jrt.Interp.assumption = function
  | Satb_core.Driver.Single_mutator -> Jrt.Interp.Single_mutator
  | Satb_core.Driver.Retrace_collector -> Jrt.Interp.Retrace_collector
  | Satb_core.Driver.Descending_scan -> Jrt.Interp.Descending_scan
  | Satb_core.Driver.Mode_a -> Jrt.Interp.Mode_a
  | Satb_core.Driver.Closed_world -> Jrt.Interp.Closed_world

(* Split verdicts for --gc hybrid: each half of the barrier elides (and
   revokes) independently, carrying its own guard set. *)
let half_policy_of ?(no_elim = false) (compiled : Satb_core.Driver.compiled) :
    Jrt.Interp.half_policy =
 fun c m pc ->
  if no_elim then Jrt.Interp.keep_both
  else
    let key =
      { Satb_core.Driver.sk_class = c; sk_method = m; sk_pc = pc }
    in
    match Satb_core.Driver.hybrid_verdict compiled key with
    | `Keep -> Jrt.Interp.keep_both
    | (`Elide_deletion | `Elide_insertion | `Elide_both) as hv ->
        let del = hv = `Elide_deletion || hv = `Elide_both in
        let ins = hv = `Elide_insertion || hv = `Elide_both in
        {
          Jrt.Interp.hs_del_elide = del;
          hs_ins_elide = ins;
          hs_ins_repair = ins && Satb_core.Driver.ins_repair_needed compiled key;
          hs_del_guards =
            (if del then
               List.map assumption_to_runtime
                 (Satb_core.Driver.site_assumptions compiled key)
             else []);
          hs_ins_guards =
            (if ins then
               List.map assumption_to_runtime
                 (Satb_core.Driver.ins_site_assumptions compiled key)
             else []);
        }

let run_cmd =
  let run file limit mode nos md swap summaries gc engine entry no_elim
      chaos_seed retrace_budget no_revoke allow_unsound gc_trigger heap_goal
      soft_limit hard_limit pacer trace metrics chrome flight_dump =
    let prog = load_verified file in
    let pacing =
      pacing_of ~gc ~gc_trigger ~heap_goal ~soft_limit ~hard_limit ~pacer
    in
    let gc_choice =
      match gc with
      | `None -> Jrt.Runner.No_gc
      | `Satb -> Jrt.Runner.make_satb ~pacing ()
      | `Incr -> Jrt.Runner.make_incr ~pacing ()
      | `Retrace -> Jrt.Runner.make_retrace ~pacing ()
      | `Hybrid -> Jrt.Runner.make_hybrid ~pacing ()
    in
    (* Refuse statically-unsound elision/collector combinations, judged
       against the chosen collector's declared capabilities (the same
       record {!Jrt.Runner.run} asserts against the installed collector at
       start-up): swap verdicts need the tracing-state protocol, move-down
       needs a descending array scan, and both assume a single mutator.
       [--gc none] never marks, so every elision is vacuously sound under
       it.  [--allow-unsound] runs the combination anyway so the snapshot
       oracle can demonstrate the breakage. *)
    let caps = Jrt.Runner.caps_of_choice gc_choice in
    if not allow_unsound then begin
      if swap && not caps.Jrt.Gc_hooks.retrace_protocol then begin
        Fmt.epr
          "satbelim: --swap elision is only sound under a collector with \
           the tracing-state protocol (--gc retrace); pass --allow-unsound \
           to run anyway and let the snapshot oracle report the \
           violations@.";
        exit 1
      end;
      if md && not caps.Jrt.Gc_hooks.descending_scan then begin
        Fmt.epr
          "satbelim: --move-down elision is only sound under a collector \
           that scans object arrays in descending index order (--gc satb \
           or --gc retrace); pass --allow-unsound to run anyway@.";
        exit 1
      end;
      if (swap || md) && Satb_core.Analysis.program_spawns prog then begin
        Fmt.epr
          "satbelim: --move-down/--swap elisions assume a single mutator \
           but this program spawns threads; pass --allow-unsound to run \
           anyway@.";
        exit 1
      end
    end;
    (* auto-capture: oracle violations, hard stops and anomaly firings
       dump the flight recorder to a stable path (armed only on CLI/bench
       entry points, so `dune runtest`'s negative soundness runs don't
       spray dump files) *)
    Flight.arm_capture ();
    let code =
      with_telemetry ~trace ~metrics ~chrome @@ fun () ->
    let compiled =
      Satb_core.Driver.compile ~inline_limit:limit
        ~conf:(conf_of mode nos md swap summaries false) prog
    in
    let policy c m pc =
      (not no_elim)
      && not
           (Satb_core.Driver.needs_barrier compiled
              { sk_class = c; sk_method = m; sk_pc = pc })
    in
    let retrace c m pc =
      if no_elim then Jrt.Interp.No_check
      else
        match
          Satb_core.Driver.retrace_check compiled
            { sk_class = c; sk_method = m; sk_pc = pc }
        with
        | `Open -> Jrt.Interp.Check_open
        | `Close -> Jrt.Interp.Check_close
        | `None -> Jrt.Interp.No_check
    in
    let guards c m pc =
      if no_elim then []
      else
        List.map assumption_to_runtime
          (Satb_core.Driver.site_assumptions compiled
             { sk_class = c; sk_method = m; sk_pc = pc })
    in
    let entry_ref =
      match String.index_opt entry '.' with
      | Some i ->
          {
            Jir.Types.mclass = String.sub entry 0 i;
            mname = String.sub entry (i + 1) (String.length entry - i - 1);
          }
      | None ->
          Fmt.epr "satbelim: entry must be Class.method@.";
          exit 1
    in
    (* revocation events name the original justification of the site
       they patch *)
    let explain c m pc =
      Satb_core.Driver.justification compiled
        { sk_class = c; sk_method = m; sk_pc = pc }
    in
    let halves = half_policy_of ~no_elim compiled in
    let cfg =
      {
        Jrt.Interp.default_config with
        policy;
        retrace;
        guards;
        explain;
        revoke = not no_revoke;
        barrier_flavor =
          (if gc = `Hybrid then `Hybrid
           else Jrt.Interp.default_config.barrier_flavor);
        halves =
          (if gc = `Hybrid then halves else Jrt.Interp.no_halves);
      }
    in
    let chaos =
      Option.map
        (fun seed -> Jrt.Chaos.create (Jrt.Chaos.of_seed seed))
        chaos_seed
    in
    let r =
      Jrt.Runner.run ~cfg ~gc:gc_choice ~engine ?chaos ?retrace_budget
        compiled.program ~entry:entry_ref
    in
    Fmt.pr "steps: %d, cost units: %d (barriers: %d)@." r.steps r.cost_units
      r.barrier_units;
    Fmt.pr "%a@." Jrt.Interp.pp_dyn_stats r.dyn;
    (* under hybrid, "elided" above means both halves; show the split *)
    if gc = `Hybrid then begin
      let sum f =
        Hashtbl.fold
          (fun _ st acc -> acc + f st)
          r.machine.Jrt.Interp.stats 0
      in
      let del_e = sum (fun st -> st.Jrt.Interp.del_elided_execs)
      and del_p = sum (fun st -> st.Jrt.Interp.del_paid_execs)
      and ins_e = sum (fun st -> st.Jrt.Interp.ins_elided_execs)
      and ins_p = sum (fun st -> st.Jrt.Interp.ins_paid_execs) in
      let pc e p =
        if e + p = 0 then 0.0
        else 100.0 *. float_of_int e /. float_of_int (e + p)
      in
      Fmt.pr
        "hybrid halves: deletion %d elided / %d paid (%.1f%%), insertion %d \
         elided / %d paid (%.1f%%)@."
        del_e del_p (pc del_e del_p) ins_e ins_p (pc ins_e ins_p)
    end;
    (match r.gc with
    | Some g ->
        Fmt.pr "gc: %d cycles, %d violations, final pauses: %a@." g.cycles
          g.total_violations
          Fmt.(list ~sep:comma int)
          g.final_pause_works;
        let retraced = List.fold_left ( + ) 0 g.retraced in
        if retraced > 0 || r.machine.Jrt.Interp.retrace_checks > 0 then
          Fmt.pr "retrace: %d checks, %d forced re-scans@."
            r.machine.Jrt.Interp.retrace_checks retraced
    | None -> ());
    let m = r.machine in
    if m.Jrt.Interp.revocation_events > 0 || m.Jrt.Interp.revoked_sites > 0 then
      Fmt.pr "revocation: %d assumption failures, %d sites patched back@."
        m.Jrt.Interp.revocation_events m.Jrt.Interp.revoked_sites;
    if m.Jrt.Interp.degradations > 0 then
      Fmt.pr "degraded: %d cycles, %d swap stores fell back to logging@."
        m.Jrt.Interp.degradations m.Jrt.Interp.degraded_swap_execs;
    (match r.pacer with
    | Some ps ->
        Fmt.pr
          "pacer: state %s, goal %.2f, trigger %d units, %d/%d cycles \
           degraded, %d assists, peak live %d units@."
          (Jrt.Pacer.state_name ps.Jrt.Pacer.p_state) ps.Jrt.Pacer.p_goal
          ps.Jrt.Pacer.p_trigger_units ps.Jrt.Pacer.p_degraded_cycles
          ps.Jrt.Pacer.p_cycles ps.Jrt.Pacer.p_assists
          ps.Jrt.Pacer.p_max_live_units
    | None -> ());
    (match chaos with
    | Some c ->
        let s = Jrt.Chaos.stats c in
        Fmt.pr
          "chaos: %d spawns, %d damage stores, %d preempted increments, %d \
           forced remarks, %d class loads, %d spike allocs, %d ramp allocs@."
          s.Jrt.Chaos.spawns s.Jrt.Chaos.damage_stores
          s.Jrt.Chaos.preempted_increments s.Jrt.Chaos.pressure_remarks
          s.Jrt.Chaos.class_loads s.Jrt.Chaos.spike_allocs
          s.Jrt.Chaos.ramp_allocs
    | None -> ());
    List.iter
      (fun (tid, e) -> Fmt.pr "thread %d died: %s@." tid e)
      r.thread_errors;
    (match flight_dump with
    | Some path ->
        Flight.dump_to_file ~reason:"cli-request" path;
        Fmt.pr "wrote %s@." path
    | None -> ());
    match r.hard_stop with
    | Some msg ->
        Fmt.epr "satbelim: hard heap limit: %s@." msg;
        4
    | None -> 0
    in
    (* the sink was flushed and closed by with_telemetry; only now is it
       safe to exit (Stdlib.exit does not unwind Fun.protect) *)
    (match Flight.captured () with
    | Some (path, reason) ->
        Fmt.epr "satbelim: flight recorder dumped to %s (%s)@." path reason
    | None -> ());
    if code <> 0 then exit code
  in
  let no_elim =
    Arg.(value & flag & info [ "no-elim" ] ~doc:"Keep every barrier.")
  in
  let flight_dump_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "flight-dump" ] ~docv:"FILE"
          ~doc:
            "Write the flight recorder's ring (GC phase transitions, pacer              decisions, revocations with guard provenance, engine              respecializations, chaos faults) to $(docv) after the run;              $(b,satbelim timeline) reconstructs it.")
  in
  let chaos_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "chaos" ] ~docv:"SEED"
          ~doc:
            "Inject a deterministic benign fault plan (late spawn, marker \
             preemption, heap pressure, adversarial pacing) derived from \
             $(docv); guarded elisions revoke and repair at runtime.")
  in
  let budget_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "retrace-budget" ] ~docv:"N"
          ~doc:
            "Bound the retrace collector's per-cycle re-scan queue; on \
             overflow the cycle degrades (swap elision falls back to \
             logging) instead of delaying remark unboundedly.")
  in
  let no_revoke_arg =
    Arg.(
      value & flag
      & info [ "no-revoke" ]
          ~doc:
            "Keep assumption guards wired but ignore their failures \
             (diagnostics only; unsound under injected faults).")
  in
  let allow_unsound_arg =
    Arg.(
      value & flag
      & info [ "allow-unsound" ]
          ~doc:
            "Run elision/collector combinations that are known to be \
             unsound so the snapshot oracle can demonstrate the breakage.")
  in
  let gc_trigger_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "gc-trigger" ] ~docv:"N"
          ~doc:
            "Deprecated fixed-mode alias: start a marking cycle every \
             $(docv) allocations, bit-for-bit the pre-pacer behaviour.  \
             Prefer the default heap-growth goal or --heap-goal.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Interpret the program with barrier instrumentation")
    Term.(
      const run $ file_arg $ inline_limit_arg $ mode_arg $ nos_arg
      $ movedown_arg $ swap_arg $ summaries_arg $ gc_arg $ engine_arg
      $ entry_arg $ no_elim $ chaos_arg $ budget_arg $ no_revoke_arg
      $ allow_unsound_arg $ gc_trigger_arg $ heap_goal_arg $ soft_limit_arg
      $ hard_limit_arg $ pacer_arg $ trace_arg $ metrics_arg $ chrome_arg
      $ flight_dump_arg)

(* profile *)

let entry_ref_of_string (entry : string) : Jir.Types.method_ref =
  match String.index_opt entry '.' with
  | Some i ->
      {
        Jir.Types.mclass = String.sub entry 0 i;
        mname = String.sub entry (i + 1) (String.length entry - i - 1);
      }
  | None ->
      Fmt.epr "satbelim: entry must be Class.method@.";
      exit 1

let profile_cmd =
  let run file workload limit mode nos md swap summaries gc engine gc_trigger
      heap_goal soft_limit hard_limit pacer entry json top baseline
      max_elision_drop max_pause_increase max_cost_increase allow_unsound
      trace metrics chrome =
    let name, prog, entry_ref =
      match (file, workload) with
      | Some _, Some _ ->
          Fmt.epr "satbelim: pass either FILE or --workload, not both@.";
          exit 1
      | None, None ->
          Fmt.epr
            "satbelim: pass a FILE or --workload NAME (try 'workloads' for \
             the list)@.";
          exit 1
      | Some f, None ->
          ( Filename.remove_extension (Filename.basename f),
            load_verified f,
            entry_ref_of_string entry )
      | None, Some n -> (
          match Workloads.Registry.find n with
          | Some w -> (w.name, Workloads.Spec.parse w, w.entry)
          | None ->
              Fmt.epr "satbelim: unknown workload %S (try 'workloads')@." n;
              exit 1)
    in
    let pacing =
      pacing_of ~gc ~gc_trigger ~heap_goal ~soft_limit ~hard_limit ~pacer
    in
    let gc_name, gc_choice =
      match gc with
      | `None -> ("none", Jrt.Runner.No_gc)
      | `Satb -> ("satb", Jrt.Runner.make_satb ~pacing ())
      | `Incr -> ("incr", Jrt.Runner.make_incr ~pacing ())
      | `Retrace -> ("retrace", Jrt.Runner.make_retrace ~pacing ())
      | `Hybrid -> ("hybrid", Jrt.Runner.make_hybrid ~pacing ())
    in
    (* same capability-driven static-soundness refusals as `run` *)
    let caps = Jrt.Runner.caps_of_choice gc_choice in
    if not allow_unsound then begin
      if swap && not caps.Jrt.Gc_hooks.retrace_protocol then begin
        Fmt.epr
          "satbelim: --swap elision is only sound under a collector with \
           the tracing-state protocol (--gc retrace); pass --allow-unsound \
           to profile anyway@.";
        exit 1
      end;
      if md && not caps.Jrt.Gc_hooks.descending_scan then begin
        Fmt.epr
          "satbelim: --move-down elision is only sound under a collector \
           that scans object arrays in descending index order (--gc satb \
           or --gc retrace); pass --allow-unsound to profile anyway@.";
        exit 1
      end;
      if (swap || md) && Satb_core.Analysis.program_spawns prog then begin
        Fmt.epr
          "satbelim: --move-down/--swap elisions assume a single mutator \
           but this program spawns threads; pass --allow-unsound to profile \
           anyway@.";
        exit 1
      end
    end;
    Flight.arm_capture ();
    let code =
      with_telemetry ~trace ~metrics ~chrome @@ fun () ->
    let compiled =
      Satb_core.Driver.compile ~inline_limit:limit
        ~conf:(conf_of mode nos md swap summaries false) prog
    in
    let policy c m pc =
      not
        (Satb_core.Driver.needs_barrier compiled
           { sk_class = c; sk_method = m; sk_pc = pc })
    in
    let retrace c m pc =
      match
        Satb_core.Driver.retrace_check compiled
          { sk_class = c; sk_method = m; sk_pc = pc }
      with
      | `Open -> Jrt.Interp.Check_open
      | `Close -> Jrt.Interp.Check_close
      | `None -> Jrt.Interp.No_check
    in
    let guards c m pc =
      List.map assumption_to_runtime
        (Satb_core.Driver.site_assumptions compiled
           { sk_class = c; sk_method = m; sk_pc = pc })
    in
    let explain c m pc =
      Satb_core.Driver.justification compiled
        { sk_class = c; sk_method = m; sk_pc = pc }
    in
    let cfg =
      {
        Jrt.Interp.default_config with
        policy;
        retrace;
        guards;
        explain;
        barrier_flavor =
          (if gc = `Hybrid then `Hybrid
           else Jrt.Interp.default_config.barrier_flavor);
        halves =
          (if gc = `Hybrid then half_policy_of compiled
           else Jrt.Interp.no_halves);
      }
    in
    let r =
      Jrt.Runner.run ~cfg ~gc:gc_choice ~engine compiled.program
        ~entry:entry_ref
    in
    List.iter
      (fun (tid, e) -> Fmt.pr "thread %d died: %s@." tid e)
      r.thread_errors;
    match r.hard_stop with
    | Some msg ->
        Fmt.epr "satbelim: hard heap limit: %s@." msg;
        4
    | None -> (
        let p = Profile.Attr.of_report ~workload:name ~gc:gc_name ~explain r in
        (* the profile must reconcile exactly with the interpreter's global
           counters (also what --metrics reports); a mismatch is a bug in the
           attribution accounting, not in the user's input *)
        match Profile.Attr.reconciles p r with
        | Error e ->
            Fmt.epr
              "satbelim: profile does not reconcile with counters: %s@." e;
            3
        | Ok () -> (
            print_string (Profile.Attr.render ~top p);
            Option.iter
              (fun path ->
                Telemetry.write_file path
                  (Telemetry.json_to_string_pretty (Profile.Attr.to_json p));
                Fmt.pr "wrote %s@." path)
              json;
            match baseline with
            | None -> 0
            | Some path -> (
                let parsed =
                  match Telemetry.json_of_string (read_file path) with
                  | Error e -> Error (Fmt.str "%s: %s" path e)
                  | Ok j -> (
                      match Profile.Attr.of_json j with
                      | Error e -> Error (Fmt.str "%s: %s" path e)
                      | Ok b -> Ok b)
                in
                match parsed with
                | Error e ->
                    Fmt.epr "satbelim: %s@." e;
                    2
                | Ok baseline ->
                    let d =
                      Profile.Attr.diff ~max_elision_drop
                        ~max_pause_increase_pct:max_pause_increase
                        ~max_cost_increase_pct:max_cost_increase ~baseline p
                    in
                    Fmt.pr "@.-- vs baseline %s --@." path;
                    print_string (Profile.Attr.render_diff d);
                    if Profile.Attr.regressed d then begin
                      Fmt.pr "FAIL: %d regression(s)@."
                        (List.length d.Profile.Attr.df_regressions);
                      (* keep the evidence: the run's ring is still live *)
                      ignore (Flight.capture ~reason:"profile-gate");
                      1
                    end
                    else begin
                      Fmt.pr "OK: no regressions@.";
                      0
                    end)))
    in
    (match Flight.captured () with
    | Some (path, reason) ->
        Fmt.epr "satbelim: flight recorder dumped to %s (%s)@." path reason
    | None -> ());
    if code <> 0 then exit code
  in
  let file_opt_arg =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:"jasm or mini-Java source file (or use --workload).")
  in
  let workload_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "workload" ] ~docv:"NAME"
          ~doc:"Profile a bundled workload instead of a source file.")
  in
  let gc_trigger_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "gc-trigger" ] ~docv:"N"
          ~doc:
            "Deprecated fixed-mode alias: start a marking cycle every \
             $(docv) allocations, bit-for-bit the pre-pacer behaviour.  \
             Prefer the default heap-growth goal or --heap-goal.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the profile as deterministic JSON (sorted keys, sites in \
             site-id order) — the format `profile --baseline` and `bench \
             diff` consume.")
  in
  let top_arg =
    Arg.(
      value
      & opt int 10
      & info [ "top" ] ~docv:"N" ~doc:"Hot sites to show (default 10).")
  in
  let baseline_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:
            "Compare against a previously saved profile JSON and exit \
             nonzero on regression.")
  in
  let elision_drop_arg =
    Arg.(
      value
      & opt float 2.0
      & info [ "max-elision-drop" ] ~docv:"POINTS"
          ~doc:
            "Allowed drop of the dynamic elision rate vs the baseline, in \
             percentage points (default 2.0).")
  in
  let pause_increase_arg =
    Arg.(
      value
      & opt float 25.0
      & info [ "max-pause-increase" ] ~docv:"PCT"
          ~doc:
            "Allowed growth of the p99/max pause vs the baseline, in \
             percent (default 25).")
  in
  let cost_increase_arg =
    Arg.(
      value
      & opt float 10.0
      & info [ "max-cost-increase" ] ~docv:"PCT"
          ~doc:
            "Allowed growth of the modelled barrier cost per kilostep vs \
             the baseline, in percent (default 10).")
  in
  let allow_unsound_arg =
    Arg.(
      value & flag
      & info [ "allow-unsound" ]
          ~doc:"Profile statically-unsound elision/collector combinations.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a workload and report per-site barrier attribution, pause \
          percentiles and MMU; optionally gate against a baseline profile")
    Term.(
      const run $ file_opt_arg $ workload_arg $ inline_limit_arg $ mode_arg
      $ nos_arg $ movedown_arg $ swap_arg $ summaries_arg $ gc_arg
      $ engine_arg $ gc_trigger_arg $ heap_goal_arg $ soft_limit_arg
      $ hard_limit_arg
      $ pacer_arg $ entry_arg $ json_arg $ top_arg $ baseline_arg
      $ elision_drop_arg $ pause_increase_arg $ cost_increase_arg
      $ allow_unsound_arg $ trace_arg $ metrics_arg $ chrome_arg)

(* validate-trace *)

let trace_file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"JSONL trace file (from --trace)")

let validate_trace_cmd =
  let run file chrome =
    let lines = String.split_on_char '\n' (read_file file) in
    match Telemetry.validate_trace_lines lines with
    | Error (0, msg) ->
        (* whole-file failure (empty trace), not a malformed line *)
        Fmt.epr "%s: %s@." file msg;
        exit 1
    | Error (line, msg) ->
        Fmt.epr "%s:%d: %s@." file line msg;
        exit 1
    | Ok n -> (
        Fmt.pr "%s: %d events, schema OK@." file n;
        (* semantic post-pass: every heap.census event must reconcile the
           census fold with the heap's own counters, to the unit — a
           mismatch is a bug in the observatory's accounting *)
        let censuses = ref 0 in
        List.iteri
          (fun i l ->
            if String.trim l <> "" then
              match Telemetry.json_of_string l with
              | Error _ -> ()
              | Ok j -> (
                  match Telemetry.event_of_json j with
                  | Error _ -> ()
                  | Ok e
                    when e.Telemetry.ev_kind = "heap.census"
                         (* sampled counters-only ticks (the always-on
                            telemetry path between full censuses) carry
                            no census fold to reconcile *)
                         && List.mem_assoc "census_live" e.Telemetry.ev_fields
                    ->
                      incr censuses;
                      let geti name =
                        match List.assoc_opt name e.Telemetry.ev_fields with
                        | Some (Telemetry.Int n) -> n
                        | _ ->
                            Fmt.epr "%s:%d: heap.census missing field %s@."
                              file (i + 1) name;
                            exit 1
                      in
                      let cl = geti "census_live"
                      and cu = geti "census_units"
                      and hl = geti "heap_live"
                      and hu = geti "heap_units" in
                      if cl <> hl || cu <> hu then begin
                        Fmt.epr
                          "%s:%d: heap.census does not reconcile: census \
                           %d objects/%d units vs heap counters %d/%d@."
                          file (i + 1) cl cu hl hu;
                        exit 1
                      end
                  | Ok _ -> ()))
          lines;
        if !censuses > 0 then
          Fmt.pr "%s: %d heap.census event(s) reconcile with heap counters@."
            file !censuses;
        match chrome with
        | None -> ()
        | Some out ->
            let events =
              List.filter_map
                (fun l ->
                  if String.trim l = "" then None
                  else
                    match Telemetry.json_of_string l with
                    | Ok j -> (
                        match Telemetry.event_of_json j with
                        | Ok e -> Some e
                        | Error _ -> None)
                    | Error _ -> None)
                lines
            in
            Telemetry.write_file out
              (Telemetry.json_to_string (Telemetry.chrome_of_events events));
            Fmt.pr "%s: wrote Chrome trace (%d events)@." out
              (List.length events))
  in
  let chrome =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome" ] ~docv:"FILE"
          ~doc:"Also convert the validated trace to a Chrome trace-event file.")
  in
  Cmd.v
    (Cmd.info "validate-trace"
       ~doc:
         "Check that a --trace JSONL file is schema-valid (monotonic \
          timestamps, strictly increasing sequence numbers, well-formed \
          events)")
    Term.(const run $ trace_file_arg $ chrome)

(* timeline *)

let timeline_cmd =
  let run file chrome =
    match Telemetry.json_of_string (read_file file) with
    | Error e ->
        Fmt.epr "satbelim: %s: %s@." file e;
        exit 1
    | Ok j -> (
        match Flight.parse_dump j with
        | Error e ->
            Fmt.epr "satbelim: %s: %s@." file e;
            exit 1
        | Ok d -> (
            print_string (Flight.render_timeline d);
            match chrome with
            | None -> ()
            | Some out ->
                let events = Flight.chrome_events_of_dump d in
                Telemetry.write_file out
                  (Telemetry.json_to_string
                     (Telemetry.chrome_of_events events));
                Fmt.pr "%s: wrote Chrome trace (%d events)@." out
                  (List.length events)))
  in
  let dump_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"DUMP"
          ~doc:
            "Flight-recorder dump (from --flight-dump FILE or an \
             auto-captured FLIGHT_dump.json).")
  in
  let chrome =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome" ] ~docv:"FILE"
          ~doc:
            "Also export the recorded events as a Chrome trace-event file \
             on the mutator-step timeline (1 step = 1us in the viewer).")
  in
  Cmd.v
    (Cmd.info "timeline"
       ~doc:
         "Reconstruct the per-cycle GC timeline and per-site elision \
          lifecycle from a flight-recorder dump")
    Term.(const run $ dump_arg $ chrome)

(* heap *)

(* The heap-state observatory front end: run a workload with the
   observatory armed and report the allocation-site census, dominator
   retention and per-collector barrier-float accounting; optionally
   export a byte-stable snapshot, and diff two snapshots. *)

let heap_report_term =
  let run file workload limit mode nos summaries gc engine heap_goal
      soft_limit hard_limit pacer entry top snapshot flight_dump trace metrics
      chrome =
    let name, prog, entry_ref =
      match (file, workload) with
      | Some _, Some _ ->
          Fmt.epr "satbelim: pass either FILE or --workload, not both@.";
          exit 1
      | None, None ->
          Fmt.epr
            "satbelim: pass a FILE or --workload NAME (try 'workloads' for \
             the list)@.";
          exit 1
      | Some f, None ->
          ( Filename.remove_extension (Filename.basename f),
            load_verified f,
            entry_ref_of_string entry )
      | None, Some n -> (
          match Workloads.Registry.find n with
          | Some w -> (w.name, Workloads.Spec.parse w, w.entry)
          | None ->
              Fmt.epr "satbelim: unknown workload %S (try 'workloads')@." n;
              exit 1)
    in
    let pacing =
      (* `Satb stands in for "some collector": the observatory refuses
         --gc none itself, so pacing flags are always meaningful here *)
      pacing_of ~gc:`Satb ~gc_trigger:None ~heap_goal ~soft_limit ~hard_limit
        ~pacer
    in
    Flight.arm_capture ();
    let code =
      with_telemetry ~trace ~metrics ~chrome @@ fun () ->
      let compiled =
        Satb_core.Driver.compile ~inline_limit:limit
          ~conf:(conf_of mode nos false false summaries false)
          prog
      in
      let policy c m pc =
        not
          (Satb_core.Driver.needs_barrier compiled
             { sk_class = c; sk_method = m; sk_pc = pc })
      in
      let retrace c m pc =
        match
          Satb_core.Driver.retrace_check compiled
            { sk_class = c; sk_method = m; sk_pc = pc }
        with
        | `Open -> Jrt.Interp.Check_open
        | `Close -> Jrt.Interp.Check_close
        | `None -> Jrt.Interp.No_check
      in
      let guards c m pc =
        List.map assumption_to_runtime
          (Satb_core.Driver.site_assumptions compiled
             { sk_class = c; sk_method = m; sk_pc = pc })
      in
      let choice = function
        | `Satb -> Jrt.Runner.make_satb ~pacing ()
        | `Incr -> Jrt.Runner.make_incr ~pacing ()
        | `Retrace -> Jrt.Runner.make_retrace ~pacing ()
        | `Hybrid -> Jrt.Runner.make_hybrid ~pacing ()
      in
      let run_one gcv =
        let gc_choice = choice gcv in
        let cfg =
          {
            Jrt.Interp.default_config with
            policy;
            retrace;
            guards;
            barrier_flavor =
              (if gcv = `Hybrid then `Hybrid
               else Jrt.Interp.default_config.barrier_flavor);
            halves =
              (if gcv = `Hybrid then half_policy_of compiled
               else Jrt.Interp.no_halves);
          }
        in
        let obs = Heapscope.Observatory.create () in
        let r =
          Jrt.Runner.run ~cfg ~gc:gc_choice ~engine
            ~observer:(Heapscope.Observatory.observe obs)
            compiled.program ~entry:entry_ref
        in
        List.iter
          (fun (tid, e) -> Fmt.pr "thread %d died: %s@." tid e)
          r.Jrt.Runner.thread_errors;
        (obs, r)
      in
      let label g = Jrt.Runner.gc_name (choice g) in
      let collectors =
        match gc with
        | `All -> [ `Satb; `Incr; `Retrace; `Hybrid ]
        | (`Satb | `Incr | `Retrace | `Hybrid) as g -> [ g ]
      in
      let results = List.map (fun g -> (g, run_one g)) collectors in
      (* the ring is reset per run, so the dump covers the last collector
         observed — with census events and the pending-census snapshot *)
      (match flight_dump with
      | Some path ->
          Flight.dump_to_file ~reason:"cli-request" path;
          Fmt.pr "wrote %s@." path
      | None -> ());
      let g0, (obs0, r0) = List.hd results in
      let m0 = r0.Jrt.Runner.machine in
      let h0 = m0.Jrt.Interp.heap in
      Fmt.pr "workload %s — heap observatory@." name;
      Fmt.pr
        "final heap under %s: %d live objects, %d units, %d GC cycles@.@."
        (label g0) h0.Jrt.Heap.live_count h0.Jrt.Heap.live_units
        h0.Jrt.Heap.gc_cycle;
      Fmt.pr "allocation-site census (%s):@." (label g0);
      print_string
        (Heapscope.Observatory.render_census ~top
           (Heapscope.Census.of_heap h0));
      Fmt.pr "@.dominator retention (%s):@." (label g0);
      print_string (Heapscope.Observatory.render_retainers ~top m0);
      List.iter
        (fun (g, ((obs : Heapscope.Observatory.t), (r : Jrt.Runner.report))) ->
          Fmt.pr "@.barrier float — %s:@." (label g);
          print_string (Heapscope.Observatory.render_float obs);
          match r.Jrt.Runner.hard_stop with
          | Some msg -> Fmt.pr "  (run aborted on hard heap limit: %s)@." msg
          | None -> ())
        results;
      Option.iter
        (fun path ->
          Telemetry.write_file path
            (Telemetry.json_to_string_pretty
               (Heapscope.Observatory.snapshot obs0 m0));
          Fmt.pr "@.wrote %s@." path)
        snapshot;
      if List.exists (fun (_, (_, r)) -> r.Jrt.Runner.hard_stop <> None) results
      then 4
      else 0
    in
    (match Flight.captured () with
    | Some (path, reason) ->
        Fmt.epr "satbelim: flight recorder dumped to %s (%s)@." path reason
    | None -> ());
    if code <> 0 then exit code
  in
  let file_opt_arg =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:"jasm or mini-Java source file (or use --workload).")
  in
  let workload_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "workload" ] ~docv:"NAME"
          ~doc:"Observe a bundled workload instead of a source file.")
  in
  let heap_gc_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("all", `All);
               ("satb", `Satb);
               ("incr", `Incr);
               ("retrace", `Retrace);
               ("hybrid", `Hybrid);
             ])
          `All
      & info [ "gc" ] ~docv:"GC"
          ~doc:
            "Collector(s) to observe: all (default — census and retention \
             from the satb run, float accounting for every collector), or \
             one of satb, incr, retrace, hybrid.")
  in
  let top_arg =
    Arg.(
      value
      & opt int 10
      & info [ "top" ] ~docv:"N"
          ~doc:"Census rows and retainers to show (default 10).")
  in
  let snapshot_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "snapshot" ] ~docv:"FILE"
          ~doc:
            "Write a byte-stable heap snapshot (census, retained sizes, \
             per-cycle float history) as JSON — the format `heap diff` \
             consumes.")
  in
  let flight_dump_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "flight-dump" ] ~docv:"FILE"
          ~doc:
            "Write the flight recorder's ring (including per-cycle census \
             events and the pending-census heap state) after the last \
             observed run; $(b,satbelim timeline) annotates its cycles \
             with live units and float%.")
  in
  Term.(
    const run $ file_opt_arg $ workload_arg $ inline_limit_arg $ mode_arg
    $ nos_arg $ summaries_arg $ heap_gc_arg $ engine_arg $ heap_goal_arg
    $ soft_limit_arg $ hard_limit_arg $ pacer_arg $ entry_arg $ top_arg
    $ snapshot_arg $ flight_dump_arg $ trace_arg $ metrics_arg $ chrome_arg)

let heap_diff_cmd =
  let run old_f new_f =
    let parse path =
      match Telemetry.json_of_string (read_file path) with
      | Ok j -> j
      | Error e ->
          Fmt.epr "satbelim: %s: %s@." path e;
          exit 1
    in
    let old_j = parse old_f and new_j = parse new_f in
    match
      Heapscope.Observatory.render_diff ~old_name:old_f ~new_name:new_f old_j
        new_j
    with
    | Ok s -> print_string s
    | Error e ->
        Fmt.epr "satbelim: %s@." e;
        exit 1
  in
  let old_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"OLD" ~doc:"Older heap snapshot (from heap --snapshot).")
  in
  let new_arg =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"NEW" ~doc:"Newer heap snapshot.")
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Census delta between two heap snapshots: per-site growth in live \
          objects and units, biggest movers first")
    Term.(const run $ old_arg $ new_arg)

let heap_cmd =
  Cmd.group ~default:heap_report_term
    (Cmd.info "heap"
       ~doc:
         "Heap-state observatory: allocation-site census, dominator \
          retention and barrier-float accounting under each collector")
    [ heap_diff_cmd ]

(* workloads *)

let workloads_cmd =
  let list_them () =
    List.iter
      (fun (w : Workloads.Spec.t) ->
        Fmt.pr "%-16s %s@." w.name w.description)
      Workloads.Registry.all
  in
  let run name =
    match name with
    | None -> list_them ()
    | Some n -> (
        match Workloads.Registry.find n with
        | Some w -> print_string w.src
        | None ->
            Fmt.epr "satbelim: unknown workload %S (try 'workloads')@." n;
            exit 1)
  in
  let name_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"NAME"
          ~doc:"Workload to dump as jasm; omit to list all workloads.")
  in
  Cmd.v
    (Cmd.info "workloads"
       ~doc:"List the bundled workloads, or dump one as jasm source")
    Term.(const run $ name_arg)

let () =
  let doc = "compile-time SATB write-barrier removal toolkit" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "satbelim" ~doc)
          [
            verify_cmd;
            disasm_cmd;
            analyze_cmd;
            run_cmd;
            profile_cmd;
            workloads_cmd;
            validate_trace_cmd;
            timeline_cmd;
            heap_cmd;
          ]))
