(* Wiring golden: what [Harness.Exp.config] hands the runtime at every
   store site, for every registry workload × inline limit × extension
   set × collector × guards × use_policy.  One line per configuration,
   holding the run configuration's revoke flag and barrier flavour and a
   digest of every site's verdict: each half's elide and guards, the
   remark-repair flag, the tracing-state check and the deletion half's
   justification, forced.

   The expected lines live in [wiring_golden.expected]; {!Golden} says
   how to regenerate them after an intended wiring change. *)

let limits = [ 0; 100 ]

let extensions =
  [
    ("none", fun ~inline_limit w -> Harness.Exp.compile ~inline_limit w);
    ( "nos+md+swap+sum",
      fun ~inline_limit w ->
        Harness.Exp.compile ~inline_limit ~null_or_same:true ~move_down:true
          ~swap:true ~summaries:true w );
  ]

let gcs =
  [
    ("none", Jrt.Runner.No_gc);
    ("satb", Jrt.Runner.make_satb ());
    ("incr", Jrt.Runner.make_incr ());
    ("retrace", Jrt.Runner.make_retrace ());
    ("hybrid", Jrt.Runner.make_hybrid ());
  ]

let assumptions l =
  String.concat "," (List.map Jir.Types.string_of_assumption l)

let check_name : Jir.Types.retrace_site -> string = function
  | No_check -> "none"
  | Check_open -> "open"
  | Check_close -> "close"

(* Every site's wired verdict, in a canonical textual form. *)
let verdicts (cw : Harness.Exp.compiled_workload) (cfg : Jrt.Interp.config) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (r : Satb_core.Analysis.method_result) ->
      List.iter
        (fun (v : Satb_core.Analysis.verdict) ->
          let w =
            cfg.policy
              { Jir.Types.s_class = r.mr_class; s_method = r.mr_method;
                s_pc = v.v_pc }
          in
          Printf.bprintf b "%s.%s@%d %b [%s] %b [%s] %b %s %s\n" r.mr_class
            r.mr_method v.v_pc w.del_elide (assumptions w.del_guards)
            w.ins_elide (assumptions w.ins_guards) w.ins_repair
            (check_name w.check)
            (Option.value (Lazy.force w.del_why) ~default:"-"))
        r.verdicts)
    cw.Harness.Exp.compiled.results;
  Buffer.contents b

let lines () =
  List.concat_map
    (fun (w : Workloads.Spec.t) ->
      List.concat_map
        (fun inline_limit ->
          List.concat_map
            (fun (ext, compile) ->
              let cw = compile ~inline_limit w in
              List.concat_map
                (fun (gc_name, gc) ->
                  List.concat_map
                    (fun guards ->
                      List.map
                        (fun use_policy ->
                          let cfg =
                            Harness.Exp.config ~use_policy ~guards ~gc cw
                          in
                          Printf.sprintf
                            "%s limit=%d ext=%s gc=%s guards=%b policy=%b | \
                             revoke=%b %s | %s"
                            w.name inline_limit ext gc_name guards use_policy
                            cfg.revoke
                            (match cfg.barrier_flavor with
                            | `Satb -> "satb"
                            | `Hybrid -> "hybrid")
                            (Digest.to_hex (Digest.string (verdicts cw cfg))))
                        [ true; false ])
                    [ false; true ])
                gcs)
            extensions)
        limits)
    Workloads.Registry.all

let test_golden () =
  Golden.check ~expected:"wiring_golden.expected" ~what:"configuration"
    (lines ())

let tests =
  [
    Alcotest.test_case "800 configurations match the golden" `Quick
      test_golden;
  ]
