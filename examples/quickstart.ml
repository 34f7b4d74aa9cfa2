(* Quickstart: build a program with the Builder API, run the
   barrier-removal analysis, and interpret the result.

   The program allocates a linked list of nodes.  Each node's [next] field
   is written exactly once, right after allocation, while the node is
   still thread-local — the classic initializing store whose SATB barrier
   the paper's field analysis removes.  The final [putstatic] publishes
   the list and must keep its barrier.

   Run with: dune exec examples/quickstart.exe *)

open Jir.Types

let node_class =
  Jir.Builder.cls "Node"
    ~fields:[ Jir.Builder.field_decl "next" R ]
    ~methods:
      [
        (* constructors must exist (the verifier insists every allocation
           is initialized); this one is trivial and always inlined *)
        Jir.Builder.meth "<init>" ~params:[ R ] ~ctor:true ~locals:1
          (fun b -> Jir.Builder.emit b Return);
      ]

let main_class =
  let meth =
    Jir.Builder.meth "main" ~params:[] ~locals:2 (fun b ->
        let emit = Jir.Builder.emit b in
        let label = Jir.Builder.label b in
        (* head = null; for (i = 10; i > 0; i--) { n = new Node();
             n.next = head; head = n; }  Main.list = head *)
        emit Aconst_null;
        emit (Astore 0);
        emit (Iconst 10);
        emit (Istore 1);
        label "loop";
        emit (Iload 1);
        emit (If_i (Le, "done"));
        emit (New "Node");
        emit Dup;
        emit (Invoke { mclass = "Node"; mname = "<init>" });
        emit Dup;
        emit (Aload 0);
        (* initializing store: provably pre-null, barrier removed *)
        emit (Putfield { fclass = "Node"; fname = "next" });
        emit (Astore 0);
        emit (Iinc (1, -1));
        emit (Goto "loop");
        label "done";
        emit (Aload 0);
        (* publication: the value escapes, barrier kept *)
        emit (Putstatic { fclass = "Main"; fname = "list" });
        emit Return)
  in
  Jir.Builder.cls "Main"
    ~statics:[ Jir.Builder.field_decl "list" R ]
    ~methods:[ meth ]

let () =
  let prog =
    Jir.Program.of_program (Jir.Builder.program [ node_class; main_class ])
  in
  (* 1. compile: verify, inline, analyze *)
  let compiled = Satb_core.Driver.compile ~inline_limit:100 prog in
  Fmt.pr "Verdicts:@.";
  List.iter
    (fun (r : Satb_core.Analysis.method_result) ->
      List.iter
        (fun (v : Satb_core.Analysis.verdict) ->
          Fmt.pr "  %s.%s@@%d: %s (%s)@." r.mr_class r.mr_method v.v_pc
            (if v.v_elide then "barrier removed" else "barrier kept")
            (Satb_core.Analysis.string_of_reason v.v_reason))
        r.verdicts)
    compiled.results;
  (* 2. run under the SATB collector with the verdicts as elision policy *)
  let policy c m pc =
    {
      Jrt.Interp.keep with
      del_elide =
        not
          (Satb_core.Driver.needs_barrier compiled
             { sk_class = c; sk_method = m; sk_pc = pc });
    }
  in
  let cfg = { Jrt.Interp.default_config with policy } in
  let report =
    Jrt.Runner.run ~cfg
      ~gc:(Jrt.Runner.make_satb ~pacing:(Jrt.Pacer.config_of_trigger 4) ())
      compiled.program
      ~entry:{ mclass = "Main"; mname = "main" }
  in
  Fmt.pr "@.%a@." Jrt.Interp.pp_dyn_stats report.dyn;
  match report.gc with
  | Some g ->
      Fmt.pr "SATB cycles: %d, invariant violations: %d@." g.cycles
        g.total_violations
  | None -> ()
