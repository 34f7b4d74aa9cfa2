(* Metrics golden: the [--metrics] document of each command shape the CLI
   has, rendered in process from the compile and the runs that hold its
   numbers — an analyze-only compile, a chaos run with every extension,
   heap's four-collector sequence, a hard-limit abort and a compile
   whose summaries widen.  The pass times are wall-clock, so they are
   masked.  The expected lines live in [metrics_golden.expected];
   {!Golden} says how to regenerate them. *)

(* a ring of sixteen methods, each passing both arguments on; the last
   also stores one into the other.  Without summaries every call havocs;
   with them the fixpoint moves the write one method back per round, so
   the component widens to havoc *)
let ring_src =
  let n = 16 in
  let meth i =
    Printf.sprintf
      "  method void m%02d (ref ref) locals 2\n%s    aload 0\n    aload 1\n\
      \    invoke T.m%02d\n    return\n  end\n"
      i
      (if i = n - 1 then "    aload 0\n    aload 1\n    putfield T.f\n" else "")
      ((i + 1) mod n)
  in
  "class T\n  field ref f\n"
  ^ String.concat "" (List.init n meth)
  ^ "end\nclass Main\n  method void main () locals 0\n    return\n  end\nend\n"

(* what one command hands the renderer: its chaos plan, its compile and
   the reports of its runs *)
type command = {
  chaos : Jrt.Chaos.t option;
  compiled : Satb_core.Driver.compiled;
  reports : Jrt.Runner.report list;
}

let analyze ?(inline_limit = 100) ~summaries prog =
  {
    chaos = None;
    compiled =
      Satb_core.Driver.compile ~inline_limit
        ~conf:{ Satb_core.Analysis.default_config with summaries }
        prog;
    reports = [];
  }

(* [satbelim heap --workload db]: one compile, then one observed run per
   collector *)
let heap_db () =
  let cw = Harness.Exp.compile Workloads.Db.t in
  let run gc =
    Harness.Exp.run ~gc ~guards:true ~fail_on_thread_error:false
      ~observer:
        (Heapscope.Observatory.observe (Heapscope.Observatory.create ()))
      cw
  in
  {
    chaos = None;
    compiled = cw.compiled;
    reports =
      List.map run
        [
          Jrt.Runner.make_satb ();
          Jrt.Runner.make_incr ();
          Jrt.Runner.make_retrace ();
          Jrt.Runner.make_hybrid ();
        ];
  }

(* an allocation spike past the hard limit, after the soft limit's
   assists *)
let hard_limit () =
  let cw = Harness.Exp.compile Workloads.Db.t in
  let chaos =
    Jrt.Chaos.create
      {
        Jrt.Chaos.seed = 1;
        faults = [ Jrt.Chaos.Alloc_spike { at_instr = 2000; count = 400 } ];
        quantum = None;
        gc_period = None;
      }
  in
  let pacing =
    {
      Jrt.Pacer.default_config with
      soft_limit = Some 60;
      hard_limit = Some 300;
    }
  in
  let r =
    Harness.Exp.run
      ~gc:(Jrt.Runner.make_satb ~pacing ~steps_per_increment:8 ())
      ~guards:true ~chaos ~fail_on_thread_error:false cw
  in
  if r.hard_stop = None then Alcotest.fail "the run did not hit its hard limit";
  { chaos = Some chaos; compiled = cw.compiled; reports = [ r ] }

(* a retrace cycle frozen mid-scan under a zero re-scan budget degrades;
   the late spawn revokes *)
let budget_overflow () =
  let cw =
    Harness.Exp.compile ~null_or_same:true ~move_down:true ~swap:true
      Workloads.Db.t
  in
  let chaos =
    Jrt.Chaos.create
      {
        Jrt.Chaos.seed = 1;
        faults =
          [
            Jrt.Chaos.Preempt_marker { at_alloc = 24; skips = 700 };
            Jrt.Chaos.Late_spawn { at_instr = 3000; stores = 4 };
          ];
        quantum = None;
        gc_period = None;
      }
  in
  let r =
    Harness.Exp.run
      ~gc:
        (Jrt.Runner.Gc
           {
             policy = Jrt.Retrace_gc.policy ~retrace_budget:0 ();
             steps_per_increment = 1;
             pacing = Jrt.Pacer.config_of_trigger 24;
           })
      ~guards:true ~chaos ~fail_on_thread_error:false cw
  in
  { chaos = Some chaos; compiled = cw.compiled; reports = [ r ] }

(* [satbelim run db.jasm --gc retrace --null-or-same --move-down --swap
   --summaries --chaos 42] *)
let db_retrace_chaos () =
  let cw =
    Harness.Exp.compile ~null_or_same:true ~move_down:true ~swap:true
      ~summaries:true Workloads.Db.t
  in
  let chaos = Jrt.Chaos.create (Jrt.Chaos.of_seed 42) in
  let r =
    Harness.Exp.run ~gc:(Jrt.Runner.make_retrace ()) ~guards:true ~chaos
      ~fail_on_thread_error:false cw
  in
  { chaos = Some chaos; compiled = cw.compiled; reports = [ r ] }

let cases =
  [
    ("heap db", heap_db);
    ("hard-limit abort", hard_limit);
    ( "analyze ring --inline-limit 0",
      fun () ->
        analyze ~inline_limit:0 ~summaries:false
          (Jir.Parser.parse_linked ring_src) );
    ("retrace budget overflow", budget_overflow);
    ( "analyze db --summaries",
      fun () -> analyze ~summaries:true (Workloads.Spec.parse Workloads.Db.t) );
    ("run db retrace, every extension, chaos 42", db_retrace_chaos);
    ( "analyze ring --summaries --inline-limit 0",
      fun () ->
        analyze ~inline_limit:0 ~summaries:true
          (Jir.Parser.parse_linked ring_src) );
  ]

let metrics (c : command) =
  Harness.Metrics.render ?chaos:c.chaos c.compiled c.reports

let cli_namespaces =
  [ "analysis"; "summary"; "jrt"; "gc"; "retrace"; "pacer"; "chaos"; "compile" ]

let in_cli name =
  match String.index_opt name '.' with
  | Some i -> List.mem (String.sub name 0 i) cli_namespaces
  | None -> false

(* keep the CLI's names, drop the [tables] key and mask the pass times *)
let normalize (j : Telemetry.json) : Telemetry.json =
  let names f = function
    | Telemetry.Obj kvs ->
        Telemetry.Obj
          (List.filter_map
             (fun (k, v) -> if in_cli k then Some (k, f v) else None)
             kvs)
    | j -> j
  in
  let mask = function
    | Telemetry.Obj kvs ->
        Telemetry.Obj
          (List.map
             (fun (k, v) ->
               if k = "count" then (k, v) else (k, Telemetry.Str "masked"))
             kvs)
    | j -> j
  in
  match j with
  | Telemetry.Obj kvs ->
      Telemetry.Obj
        (List.filter_map
           (fun (k, v) ->
             match k with
             | "counters" | "gauges" -> Some (k, names Fun.id v)
             | "histograms" -> Some (k, names mask v)
             | _ -> None)
           kvs)
  | j -> j

let test_golden () =
  let lines =
    List.concat_map
      (fun (name, case) ->
        ("== " ^ name)
        :: String.split_on_char '\n'
             (Telemetry.json_to_string_pretty (normalize (metrics (case ()))))
        |> List.filter (fun l -> l <> ""))
      cases
  in
  Golden.check ~expected:"metrics_golden.expected" ~what:"metrics line" lines

let tests = [ Alcotest.test_case "metrics golden" `Quick test_golden ]
