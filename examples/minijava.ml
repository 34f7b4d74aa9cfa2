(* The paper's §3.1 example, written as source the way the paper prints
   it, compiled through the mini-Java frontend, analyzed, and executed
   under the SATB collector.

   Run with: dune exec examples/minijava.exe *)

let source =
  {|
// paper §3.1: public static T[] expand(T[] ta)
class T { T payload; }

class Main {
  static T[] result;

  static T[] expand(T[] ta) {
    T[] new_ta = new T[ta.length * 2];
    for (int i = 0; i < ta.length; i = i + 1) {
      new_ta[i] = ta[i];
    }
    return new_ta;
  }

  static void main() {
    T[] src = new T[8];
    for (int i = 0; i < 8; i = i + 1) {
      src[i] = new T();
    }
    Main.result = Main.expand(src);
  }
}
|}

let () =
  Fmt.pr "mini-Java source:@.%s@." source;
  let prog = Jsrc.Compile.compile_source source in
  Jir.Verifier.verify_exn prog;
  Fmt.pr "compiled to jasm:@.%a@." Jir.Pp.pp_program
    (Jir.Program.program prog);
  let compiled = Satb_core.Driver.compile ~inline_limit:100 prog in
  Fmt.pr "verdicts:@.";
  List.iter
    (fun (r : Satb_core.Analysis.method_result) ->
      List.iter
        (fun (v : Satb_core.Analysis.verdict) ->
          Fmt.pr "  %s.%s@@%d: %s (%s)@." r.mr_class r.mr_method v.v_pc
            (if v.v_elide then "barrier removed" else "barrier kept")
            (Satb_core.Analysis.string_of_reason v.v_reason))
        r.verdicts)
    compiled.results;
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
  let r =
    Jrt.Runner.run ~cfg
      ~gc:(Jrt.Runner.make_satb ~pacing:(Jrt.Pacer.config_of_trigger 4) ())
      compiled.program
      ~entry:{ Jir.Types.mclass = "Main"; mname = "main" }
  in
  Fmt.pr "@.%a@." Jrt.Interp.pp_dyn_stats r.dyn;
  match r.gc with
  | Some g ->
      Fmt.pr "SATB cycles: %d, violations: %d@." g.cycles g.total_violations
  | None -> ()
