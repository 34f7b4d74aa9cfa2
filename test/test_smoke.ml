(* End-to-end smoke tests: assemble a small program, verify it, analyze
   it, and run it under both collectors. *)

let expand_src =
  {|
class T
  field ref payload
  method void <init> (ref) locals 1 ctor
    return
  end
end

class Main
  static ref result
  method ref expand (ref) locals 4
    ; new_ta = new T[ta.length * 2]
    aload 0
    arraylength
    iconst 2
    imul
    anewarray T
    astore 1
    ; for (i = 0; i < ta.length; i++) new_ta[i] = ta[i]
    iconst 0
    istore 2
  loop:
    iload 2
    aload 0
    arraylength
    if_icmpge done
    aload 1
    iload 2
    aload 0
    iload 2
    aaload
    aastore
    iinc 2 1
    goto loop
  done:
    aload 1
    areturn
  end

  method void main () locals 3
    ; build a source array of 8 fresh objects
    iconst 8
    anewarray T
    astore 0
    iconst 0
    istore 1
  fill:
    iload 1
    iconst 8
    if_icmpge go
    aload 0
    iload 1
    new T
    dup
    invoke T.<init>
    aastore
    iinc 1 1
    goto fill
  go:
    aload 0
    invoke Main.expand
    putstatic Main.result
    return
  end
end
|}

let parse_and_link () = Jir.Parser.parse_linked expand_src

let test_parse_verify () =
  let prog = parse_and_link () in
  match Jir.Verifier.verify_program prog with
  | Ok () -> ()
  | Error errs ->
      Alcotest.failf "verify: %a" Fmt.(list Jir.Verifier.pp_error) errs

let test_roundtrip () =
  let prog = parse_and_link () in
  let printed = Jir.Pp.program_to_string (Jir.Program.program prog) in
  let reparsed = Jir.Parser.parse_program printed in
  let printed2 = Jir.Pp.program_to_string reparsed in
  Alcotest.(check string) "pp/parse round-trip" printed printed2

let test_analysis_elides_expand_loop () =
  let prog = parse_and_link () in
  let compiled = Satb_core.Driver.compile ~inline_limit:100 prog in
  let stats = Satb_core.Driver.static_stats compiled in
  (* expand's loop store and main's fill-loop store should both be proven
     initializing; the putstatic must keep its barrier *)
  Alcotest.(check bool) "some sites elided" true (stats.elided_sites >= 2);
  Alcotest.(check bool)
    "statics never elided" true
    (stats.static_sites >= 1 && stats.elided_sites < stats.total_sites)

let run_with gc =
  let prog = parse_and_link () in
  let compiled = Satb_core.Driver.compile ~inline_limit:100 prog in
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
  Jrt.Runner.run ~cfg ~gc
    ~entry:{ Jir.Types.mclass = "Main"; mname = "main" }
    compiled.program

let test_run_no_gc () =
  let r = run_with Jrt.Runner.No_gc in
  Alcotest.(check (list (pair int string))) "no thread errors" [] r.thread_errors;
  Alcotest.(check bool) "executed instructions" true (r.steps > 50)

let test_run_satb () =
  let r =
    run_with (Jrt.Runner.make_satb ~pacing:(Jrt.Pacer.config_of_trigger 4)
      ~steps_per_increment:2 ())
  in
  Alcotest.(check (list (pair int string))) "no thread errors" [] r.thread_errors;
  match r.gc with
  | Some g -> Alcotest.(check int) "no SATB violations" 0 g.total_violations
  | None -> Alcotest.fail "expected gc summary"

let test_run_incr () =
  let r =
    run_with (Jrt.Runner.make_incr ~pacing:(Jrt.Pacer.config_of_trigger 4)
      ~steps_per_increment:2 ())
  in
  Alcotest.(check (list (pair int string))) "no thread errors" [] r.thread_errors;
  match r.gc with
  | Some g -> Alcotest.(check int) "no incremental violations" 0 g.total_violations
  | None -> Alcotest.fail "expected gc summary"

let tests =
  [
    Alcotest.test_case "parse+verify" `Quick test_parse_verify;
    Alcotest.test_case "pp round-trip" `Quick test_roundtrip;
    Alcotest.test_case "analysis elides expand loop" `Quick
      test_analysis_elides_expand_loop;
    Alcotest.test_case "run no-gc" `Quick test_run_no_gc;
    Alcotest.test_case "run satb" `Quick test_run_satb;
    Alcotest.test_case "run incremental" `Quick test_run_incr;
  ]
