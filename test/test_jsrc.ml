(* Mini-Java frontend tests: lexing, parsing, type checking, code
   generation semantics, and the paper's examples written as source. *)

let compile src = Jsrc.Compile.compile_source src

let compile_verified src =
  let prog = compile src in
  (match Jir.Verifier.verify_program prog with
  | Ok () -> ()
  | Error (e :: _) ->
      Alcotest.failf "compiled code fails verification: %a"
        Jir.Verifier.pp_error e
  | Error [] -> assert false);
  prog

let run ?(entry = "Main.main") src =
  let prog = compile_verified src in
  let entry_ref =
    match String.split_on_char '.' entry with
    | [ c; m ] -> { Jir.Types.mclass = c; mname = m }
    | _ -> failwith "bad entry"
  in
  Jrt.Runner.run prog ~entry:entry_ref

let out_static (r : Jrt.Runner.report) =
  match Hashtbl.find_opt r.machine.Jrt.Interp.statics ("Main", "out") with
  | Some (Jrt.Value.Int n) -> n
  | _ -> Alcotest.fail "no int Main.out"

let check_out name src expected =
  let r = run src in
  Alcotest.(check (list (pair int string))) (name ^ " errors") []
    r.thread_errors;
  Alcotest.(check int) name expected (out_static r)

(* ---- lexer -------------------------------------------------------------- *)

let test_lexer () =
  let toks =
    Jsrc.Jlexer.tokenize
      "class C { /* block\ncomment */ int x; // line\n  a <= b != 12 }"
    |> List.map (fun (s : Jsrc.Jlexer.spanned) -> s.tok)
  in
  Alcotest.(check (list string)) "token stream"
    [
      "keyword \"class\""; "identifier \"C\""; "\"{\""; "keyword \"int\"";
      "identifier \"x\""; "\";\""; "identifier \"a\""; "\"<=\"";
      "identifier \"b\""; "\"!=\""; "integer 12"; "\"}\""; "end of input";
    ]
    (List.map Jsrc.Jlexer.string_of_token toks)

let test_lexer_errors () =
  (match Jsrc.Jlexer.tokenize "a @ b" with
  | _ -> Alcotest.fail "expected lex error"
  | exception Jsrc.Jlexer.Lex_error { message; _ } ->
      Alcotest.(check bool) "mentions char" true
        (String.length message > 0));
  match Jsrc.Jlexer.tokenize "/* unterminated" with
  | _ -> Alcotest.fail "expected lex error"
  | exception Jsrc.Jlexer.Lex_error _ -> ()

(* ---- type / parse errors ------------------------------------------------ *)

let expect_error name src =
  match compile src with
  | _ -> Alcotest.failf "%s: expected a compile error" name
  | exception Jsrc.Compile.Type_error _ -> ()
  | exception Jsrc.Jparser.Parse_error _ -> ()

let test_errors () =
  expect_error "unknown variable"
    "class Main { static void main() { x = 1; } }";
  expect_error "type mismatch"
    "class Main { static void main() { int x = null; } }";
  expect_error "arity"
    "class Main { static int f(int a) { return a; } static void main() { int x = f(1, 2); } }";
  expect_error "this in static"
    "class Main { int f; static void main() { int x = this.f; } }";
  expect_error "void as value"
    "class Main { static void g() { } static void main() { int x = g(); } }";
  expect_error "ordered ref comparison"
    "class T { } class Main { static void main() { T a = new T(); if (a < a) { } } }";
  expect_error "unknown field"
    "class T { } class Main { static void main() { T a = new T(); a.f = null; } }";
  expect_error "duplicate variable"
    "class Main { static void main() { int x = 1; int x = 2; } }";
  expect_error "instance call from static"
    "class Main { void m() { } static void main() { m(); } }";
  expect_error "assignment to call"
    "class Main { static int f() { return 1; } static void main() { f() = 2; } }";
  expect_error "int against null"
    "class Main { static void main() { int x = 1; if (x == null) { } } }"

(* ---- semantics ----------------------------------------------------------- *)

let test_arith_and_for () =
  check_out "sum of squares"
    {|
class Main {
  static int out;
  static void main() {
    int acc = 0;
    for (int i = 1; i <= 5; i = i + 1) { acc = acc + i * i; }
    Main.out = acc;
  }
}
|}
    55

let test_recursion () =
  check_out "factorial"
    {|
class Main {
  static int out;
  static int fact(int n) {
    if (n <= 1) { return 1; }
    return n * fact(n - 1);
  }
  static void main() { Main.out = fact(6); }
}
|}
    720

let test_objects_and_instance_methods () =
  check_out "linked list sum via instance methods"
    {|
class Node {
  Node next;
  int v;
  Node(Node n, int v) { this.next = n; this.v = v; }
  int sum() {
    if (this.next == null) { return this.v; }
    return this.v + this.next.sum();
  }
}
class Main {
  static int out;
  static void main() {
    Node l = new Node(new Node(new Node(null, 30), 10), 2);
    Main.out = l.sum();
  }
}
|}
    42

let test_arrays () =
  check_out "array reverse and sum"
    {|
class Main {
  static int out;
  static void main() {
    int[] a = new int[6];
    for (int i = 0; i < a.length; i = i + 1) { a[i] = i * 10; }
    int[] b = new int[6];
    for (int j = 0; j < 6; j = j + 1) { b[5 - j] = a[j]; }
    int acc = 0;
    for (int k = 0; k < 6; k = k + 1) { acc = acc + b[k] * (k + 1); }
    Main.out = acc;
  }
}
|}
    (* b = [50;40;30;20;10;0]; weighted: 50+80+90+80+50+0 = 350 *)
    350

let test_short_circuit () =
  (* the right operand of && must not run when the left is false: here it
     would divide by zero *)
  check_out "short circuit"
    {|
class Main {
  static int out;
  static void main() {
    int zero = 0;
    int x = 7;
    if (zero != 0 && 10 / zero > 1) { x = 1; }
    if (zero == 0 || 10 / zero > 1) { x = x + 1; }
    Main.out = x;
  }
}
|}
    8

let test_while_and_not () =
  check_out "while with negated condition"
    {|
class Main {
  static int out;
  static void main() {
    int i = 0;
    while (!(i >= 10)) { i = i + 2; }
    Main.out = i;
  }
}
|}
    10

let test_spawn () =
  let r =
    run
      {|
class Main {
  static int out;
  static void worker(int n) {
    int acc = 0;
    for (int i = 0; i < n; i = i + 1) { acc = acc + 1; }
    Main.out = acc;
  }
  static void main() { spawn Main.worker(25); }
}
|}
  in
  Alcotest.(check (list (pair int string))) "no errors" [] r.thread_errors;
  Alcotest.(check int) "worker ran" 25 (out_static r)

let test_static_vs_local_disambiguation () =
  (* a local named like a class shadows the class for member access *)
  check_out "shadowing"
    {|
class Box {
  int v;
  static int tag;
}
class Main {
  static int out;
  static void main() {
    Box.tag = 5;
    Box Box = new Box();
    Box.v = 37;
    Main.out = Box.v + 5;
  }
}
|}
    42

(* ---- the paper's examples as source ------------------------------------- *)

let paper_expand =
  {|
class T { T payload; }
class Main {
  static T[] result;
  static T[] expand(T[] ta) {
    T[] new_ta = new T[ta.length * 2];
    for (int i = 0; i < ta.length; i = i + 1) { new_ta[i] = ta[i]; }
    return new_ta;
  }
  static void main() {
    T[] src = new T[8];
    for (int i = 0; i < 8; i = i + 1) { src[i] = new T(); }
    Main.result = Main.expand(src);
  }
}
|}

let verdicts src ~meth =
  let prog = compile_verified src in
  let compiled = Satb_core.Driver.compile ~inline_limit:100 prog in
  List.concat_map
    (fun (r : Satb_core.Analysis.method_result) ->
      if String.equal r.mr_method meth then
        List.map (fun (v : Satb_core.Analysis.verdict) -> v.v_elide) r.verdicts
      else [])
    compiled.results

let test_paper_expand_verbatim () =
  Alcotest.(check (list bool)) "copy-loop store elided" [ true ]
    (verdicts paper_expand ~meth:"expand")

let test_paper_two_names_in_java () =
  (* §2.4: W1 on the fresh object elides, W2 on the saved older object
     does not *)
  let src =
    {|
class T { T f1; }
class Main {
  static T sink;
  static void loop(int n) {
    T saved = null;
    for (int i = 0; i < n; i = i + 1) {
      T t = new T();
      t.f1 = Main.sink;
      if (saved != null) { saved.f1 = Main.sink; }
      saved = t;
    }
  }
  static void main() { Main.sink = new T(); loop(8); }
}
|}
  in
  Alcotest.(check (list bool)) "W1 elided, W2 kept" [ true; false ]
    (verdicts src ~meth:"loop")

let test_memo_idiom_in_java () =
  (* §4.3 null-or-same, as the natural source idiom *)
  let src =
    {|
class Scope { Scope cache; }
class Main {
  static Scope seed;
  static void resolve(int n) {
    Scope s = new Scope();
    s.cache = Main.seed;
    for (int i = 0; i < n; i = i + 1) {
      Scope t = s.cache;
      if (t == null) { t = Main.seed; }
      s.cache = t;
    }
  }
  static void main() { Main.seed = new Scope(); resolve(10); }
}
|}
  in
  let prog = compile_verified src in
  let conf = { Satb_core.Analysis.default_config with null_or_same = true } in
  let compiled = Satb_core.Driver.compile ~inline_limit:100 ~conf prog in
  let flags =
    List.concat_map
      (fun (r : Satb_core.Analysis.method_result) ->
        if String.equal r.mr_method "resolve" then
          List.map
            (fun (v : Satb_core.Analysis.verdict) -> v.v_elide)
            r.verdicts
        else [])
      compiled.results
  in
  Alcotest.(check (list bool)) "init elided, write-back null-or-same"
    [ true; true ] flags

let test_end_to_end_satb () =
  let prog = compile_verified paper_expand in
  let compiled = Satb_core.Driver.compile ~inline_limit:100 prog in
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
      ~gc:(Jrt.Runner.make_satb ~pacing:(Jrt.Pacer.config_of_trigger 4)
        ~steps_per_increment:2 ())
      compiled.program
      ~entry:{ Jir.Types.mclass = "Main"; mname = "main" }
  in
  Alcotest.(check (list (pair int string))) "no errors" [] r.thread_errors;
  match r.gc with
  | Some g -> Alcotest.(check int) "no violations" 0 g.total_violations
  | None -> Alcotest.fail "expected gc"

let test_compiled_jasm_roundtrips () =
  (* compiled programs print as jasm and parse back identically *)
  let prog = compile paper_expand in
  let s1 = Jir.Pp.program_to_string (Jir.Program.program prog) in
  let s2 = Jir.Pp.program_to_string (Jir.Parser.parse_program s1) in
  Alcotest.(check string) "round-trip" s1 s2

let tests =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("lexer", test_lexer);
      ("lexer errors", test_lexer_errors);
      ("compile errors", test_errors);
      ("arith + for", test_arith_and_for);
      ("recursion", test_recursion);
      ("objects + instance methods", test_objects_and_instance_methods);
      ("arrays", test_arrays);
      ("short circuit", test_short_circuit);
      ("while + not", test_while_and_not);
      ("spawn", test_spawn);
      ("static/local disambiguation", test_static_vs_local_disambiguation);
      ("paper expand verbatim", test_paper_expand_verbatim);
      ("paper two-names in java", test_paper_two_names_in_java);
      ("memo idiom in java", test_memo_idiom_in_java);
      ("end-to-end SATB", test_end_to_end_satb);
      ("compiled jasm round-trips", test_compiled_jasm_roundtrips);
    ]
