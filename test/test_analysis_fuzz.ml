(* Fuzzing the whole pipeline: for randomly generated programs, the
   analysis must terminate, its verdicts must agree with the interpreter's
   pre-null instrumentation, and running under SATB with elision enabled
   must preserve the snapshot invariant. *)

let compile prog =
  Satb_core.Driver.compile ~inline_limit:100
    ~conf:{ Satb_core.Analysis.default_config with null_or_same = true }
    prog

(* A site the analysis elides must never observe a non-null pre-value at
   runtime (the §4.2 correctness check, automated): null-or-same sites
   are the exception — they may overwrite their own value — so check
   against the verdict reason. *)
let prop_elided_sites_never_non_null =
  QCheck2.Test.make ~name:"elided pre-null sites never see non-null"
    ~count:150 Gen.gen_program (fun p ->
      let prog = Jir.Program.of_program p in
      let compiled = compile prog in
      let policy site =
        {
          Jir.Types.keep with
          del_elide =
            (Satb_core.Driver.barrier compiled site).del_elide;
        }
      in
      let cfg = { Jrt.Interp.default_config with policy } in
      let r =
        Jrt.Runner.run ~cfg compiled.program
          ~entry:{ Jir.Types.mclass = "Main"; mname = "m" }
      in
      Hashtbl.fold
        (fun site (st : Jrt.Interp.site_stats) ok ->
          ok
          &&
          if not (Jrt.Interp.elided r.machine st) then true
          else
            match Hashtbl.find_opt compiled.sites site with
            | Some { analysis = { v_reason = Null_or_same | Move_down; _ }; _ }
              ->
                true
            | _ -> st.pre_null_execs = st.execs)
        r.machine.Jrt.Interp.stats true)

let prop_satb_sound_on_generated =
  QCheck2.Test.make ~name:"SATB invariant on generated programs" ~count:100
    (QCheck2.Gen.pair Gen.gen_program (QCheck2.Gen.int_range 1 1000))
    (fun (p, seed) ->
      let prog = Jir.Program.of_program p in
      let compiled = compile prog in
      let policy site =
        {
          Jir.Types.keep with
          del_elide =
            (Satb_core.Driver.barrier compiled site).del_elide;
        }
      in
      let cfg = { Jrt.Interp.default_config with policy } in
      let r =
        Jrt.Runner.run ~cfg
          ~gc:
            (Jrt.Runner.make_satb
               ~steps_per_increment:(1 + (seed mod 8))
               ~pacing:(Jrt.Pacer.config_of_trigger 2) ())
          ~seed
          ~quantum:(1 + (seed mod 30))
          ~gc_period:(1 + (seed mod 10))
          compiled.program
          ~entry:{ Jir.Types.mclass = "Main"; mname = "m" }
      in
      match r.gc with Some g -> g.total_violations = 0 | None -> false)

let prop_analysis_deterministic =
  QCheck2.Test.make ~name:"analysis is deterministic" ~count:100
    Gen.gen_program (fun p ->
      let prog = Jir.Program.of_program p in
      let verdicts prog =
        List.concat_map
          (fun (r : Satb_core.Analysis.method_result) ->
            List.map
              (fun (v : Satb_core.Analysis.verdict) ->
                (r.mr_class, r.mr_method, v.v_pc, v.v_elide))
              r.verdicts)
          (compile prog).results
      in
      verdicts prog = verdicts prog)

(* widening: a loop whose counter strides differently on two paths still
   reaches a fixed point, and the affected store conservatively keeps its
   barrier *)
let test_widening_terminates () =
  let src =
    {|
class T
  field ref f
  method void <init> (ref) locals 1 ctor
    return
  end
end
class Main
  static int p
  static ref sink
  method void m () locals 2
    iconst 8
    anewarray T
    astore 1
    iconst 0
    istore 0
  loop:
    iload 0
    iconst 8
    if_icmpge fin
    aload 1
    iload 0
    getstatic Main.sink
    aastore
    getstatic Main.p
    ifeq two
    iinc 0 1
    goto loop
  two:
    iinc 0 2
    goto loop
  fin:
    return
  end
end
|}
  in
  let prog = Jir.Parser.parse_linked src in
  let compiled = Satb_core.Driver.compile ~inline_limit:100 prog in
  match compiled.results with
  | _ ->
      (* reaching here at all means the fixed point was found; the store
         must be kept (stride is 1 on one path, 2 on the other) *)
      let kept =
        List.for_all
          (fun (r : Satb_core.Analysis.method_result) ->
            List.for_all
              (fun (v : Satb_core.Analysis.verdict) ->
                if r.mr_method = "m" then not v.v_elide else true)
              r.verdicts)
          compiled.results
      in
      Alcotest.(check bool) "mixed-stride store kept" true kept

let test_low_max_visits_still_sound () =
  (* an aggressive widening threshold loses precision but never soundness:
     run jess compiled with max_visits = 1 under SATB *)
  let prog = Workloads.Spec.parse Workloads.Jess.t in
  let conf = { Satb_core.Analysis.default_config with max_visits = 1 } in
  let compiled = Satb_core.Driver.compile ~inline_limit:100 ~conf prog in
  let policy site =
    {
      Jir.Types.keep with
      del_elide =
        (Satb_core.Driver.barrier compiled site).del_elide;
    }
  in
  let cfg = { Jrt.Interp.default_config with policy } in
  let r =
    Jrt.Runner.run ~cfg
      ~gc:(Jrt.Runner.make_satb ~pacing:(Jrt.Pacer.config_of_trigger 16)
        ~steps_per_increment:4 ())
      compiled.program ~entry:Workloads.Jess.t.entry
  in
  (match r.gc with
  | Some g -> Alcotest.(check int) "sound under widening" 0 g.total_violations
  | None -> Alcotest.fail "expected gc");
  Alcotest.(check (list (pair int string))) "no errors" [] r.thread_errors

let tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_elided_sites_never_non_null;
      prop_satb_sound_on_generated;
      prop_analysis_deterministic;
    ]
  @ List.map
      (fun (n, f) -> Alcotest.test_case n `Quick f)
      [
        ("widening terminates", test_widening_terminates);
        ("aggressive widening stays sound", test_low_max_visits_still_sound);
      ]
