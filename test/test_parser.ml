(* Lexer/parser/pretty-printer tests, including the pp∘parse round-trip
   on handwritten sources, every workload, and generated programs. *)

let tokens_of src =
  List.map (fun (l : Jir.Lexer.line) -> l.tokens) (Jir.Lexer.tokenize src)

let test_lexer_comments_and_blanks () =
  let src = "  a b ; comment\n\n# whole line\n\tc\td  ;x\n" in
  Alcotest.(check (list (list string)))
    "tokens" [ [ "a"; "b" ]; [ "c"; "d" ] ] (tokens_of src)

let test_lexer_line_numbers () =
  let lines = Jir.Lexer.tokenize "a\n\nb\n" in
  Alcotest.(check (list int)) "line numbers" [ 1; 3 ]
    (List.map (fun (l : Jir.Lexer.line) -> l.lineno) lines)

let parse_err src =
  match Jir.Parser.parse_program src with
  | _ -> None
  | exception Jir.Parser.Parse_error { lineno; message } ->
      Some (lineno, message)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let check_err name src frag =
  match parse_err src with
  | Some (_, msg) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s mentions %S (got %S)" name frag msg)
        true (contains msg frag)
  | None -> Alcotest.failf "%s: expected a parse error" name

let test_parse_errors () =
  check_err "top-level junk" "foo bar\n" "expected 'class";
  check_err "bad field type" "class C\n field float x\nend\n" "expected type";
  check_err "unknown instruction"
    "class C\n method void m () locals 0\n frobnicate\n end\nend\n"
    "unknown instruction";
  check_err "missing end"
    "class C\n method void m () locals 0\n return\n" "missing end";
  check_err "undefined label"
    "class C\n method void m () locals 0\n goto nowhere\n return\n end\nend\n"
    "undefined label";
  check_err "duplicate label"
    "class C\n method void m () locals 0\n l:\n l:\n return\n end\nend\n"
    "duplicate label";
  check_err "bad catch"
    "class C\n method void m () locals 0\n catch weird a b c\n return\n end\nend\n"
    "unknown exception kind";
  check_err "bad member ref"
    "class C\n method void m () locals 0\n getstatic nodot\n return\n end\nend\n"
    "expected Class.member"

let test_parse_header_variants () =
  (* parens attached or separated both parse *)
  let p1 =
    Jir.Parser.parse_program
      "class C\n method int m (int ref) locals 2\n iconst 0\n ireturn\n end\nend\n"
  in
  let p2 =
    Jir.Parser.parse_program
      "class C\n method int m ( int ref ) locals 2\n iconst 0\n ireturn\n end\nend\n"
  in
  Alcotest.(check string) "same program"
    (Jir.Pp.program_to_string p1)
    (Jir.Pp.program_to_string p2)

let test_parse_ctor_flag () =
  let p =
    Jir.Parser.parse_program
      "class C\n method void <init> (ref) locals 1 ctor\n return\n end\nend\n"
  in
  match p.classes with
  | [ { methods = [ m ]; _ } ] ->
      Alcotest.(check bool) "ctor" true m.is_constructor
  | _ -> Alcotest.fail "expected one method"

let test_handlers_roundtrip () =
  let src =
    "class C\n\
     method void m () locals 1\n\
     t0:\n\
     iconst 1\n\
     iconst 0\n\
     idiv\n\
     pop\n\
     t1:\n\
     return\n\
     h:\n\
     return\n\
     catch arith t0 t1 h\n\
     end\n\
     end\n"
  in
  let p = Jir.Parser.parse_program src in
  let printed = Jir.Pp.program_to_string p in
  let p2 = Jir.Parser.parse_program printed in
  (match (List.hd p.classes).methods with
  | [ m ] -> (
      match m.handlers with
      | [ h ] ->
          Alcotest.(check int) "from" 0 h.from_pc;
          Alcotest.(check int) "to" 4 h.to_pc;
          Alcotest.(check int) "target" 5 h.target
      | _ -> Alcotest.fail "expected one handler")
  | _ -> Alcotest.fail "expected one method");
  Alcotest.(check string) "handler round-trip" printed
    (Jir.Pp.program_to_string p2)

let roundtrip_fixpoint name src =
  let p1 = Jir.Parser.parse_program src in
  let s1 = Jir.Pp.program_to_string p1 in
  let p2 = Jir.Parser.parse_program s1 in
  let s2 = Jir.Pp.program_to_string p2 in
  Alcotest.(check string) (name ^ " round-trip") s1 s2

let test_workloads_roundtrip () =
  List.iter
    (fun (w : Workloads.Spec.t) -> roundtrip_fixpoint w.name w.src)
    Workloads.Registry.all

let test_every_mnemonic_roundtrips () =
  (* one program exercising every instruction form *)
  let src =
    "class C\n\
     field ref r\n\
     field int i\n\
     static ref s\n\
     method void <init> (ref) locals 1 ctor\n\
     return\n\
     end\n\
     method int callee (int) locals 1\n\
     iload 0\n\
     ireturn\n\
     end\n\
     method void spawned (ref) locals 1\n\
     return\n\
     end\n\
     method ref m (ref int) locals 6\n\
     iconst 42\n\
     istore 1\n\
     aconst_null\n\
     astore 2\n\
     iload 1\n\
     iload 1\n\
     iadd\n\
     iload 1\n\
     isub\n\
     iload 1\n\
     imul\n\
     iconst 3\n\
     idiv\n\
     iconst 2\n\
     irem\n\
     ineg\n\
     istore 1\n\
     iinc 1 -7\n\
     new C\n\
     dup\n\
     invoke C.<init>\n\
     astore 3\n\
     aload 3\n\
     aload 3\n\
     putfield C.r\n\
     aload 3\n\
     getfield C.r\n\
     pop\n\
     aload 3\n\
     iload 1\n\
     putfield C.i\n\
     aload 3\n\
     getfield C.i\n\
     pop\n\
     getstatic C.s\n\
     putstatic C.s\n\
     iconst 4\n\
     anewarray C\n\
     astore 4\n\
     aload 4\n\
     arraylength\n\
     pop\n\
     aload 4\n\
     iconst 0\n\
     aload 3\n\
     aastore\n\
     aload 4\n\
     iconst 0\n\
     aaload\n\
     pop\n\
     iconst 5\n\
     inewarray\n\
     astore 5\n\
     aload 5\n\
     iconst 1\n\
     iconst 9\n\
     iastore\n\
     aload 5\n\
     iconst 1\n\
     iaload\n\
     pop\n\
     iload 1\n\
     invoke C.callee\n\
     pop\n\
     aload 3\n\
     spawn C.spawned\n\
     aload 3\n\
     aload 2\n\
     swap\n\
     pop\n\
     l1:\n\
     iload 1\n\
     ifeq l2\n\
     iload 1\n\
     ifne l2\n\
     iload 1\n\
     iflt l2\n\
     iload 1\n\
     ifge l2\n\
     iload 1\n\
     ifgt l2\n\
     iload 1\n\
     ifle l2\n\
     iload 1\n\
     iload 1\n\
     if_icmpeq l2\n\
     iload 1\n\
     iload 1\n\
     if_icmpne l2\n\
     iload 1\n\
     iload 1\n\
     if_icmplt l2\n\
     iload 1\n\
     iload 1\n\
     if_icmpge l2\n\
     iload 1\n\
     iload 1\n\
     if_icmpgt l2\n\
     iload 1\n\
     iload 1\n\
     if_icmple l2\n\
     aload 2\n\
     ifnull l2\n\
     aload 2\n\
     ifnonnull l2\n\
     aload 2\n\
     aload 3\n\
     if_acmpeq l2\n\
     aload 2\n\
     aload 3\n\
     if_acmpne l2\n\
     goto l1\n\
     l2:\n\
     aload 2\n\
     areturn\n\
     end\n\
     end\n"
  in
  let prog = Jir.Parser.parse_linked src in
  Jir.Verifier.verify_exn prog;
  roundtrip_fixpoint "all mnemonics" src

let prop_generated_roundtrip =
  QCheck2.Test.make ~name:"generated programs round-trip" ~count:200
    Gen.gen_program (fun p ->
      let s1 = Jir.Pp.program_to_string p in
      let p2 = Jir.Parser.parse_program s1 in
      let s2 = Jir.Pp.program_to_string p2 in
      s1 = s2)

(* CRLF line endings lex like LF ones: the carriage return is a blank *)
let test_crlf_workloads () =
  List.iter
    (fun (w : Workloads.Spec.t) ->
      let crlf =
        String.concat "\r\n" (String.split_on_char '\n' w.src)
      in
      Alcotest.(check string)
        (w.name ^ " parses the same with CRLF")
        (Jir.Pp.program_to_string (Jir.Parser.parse_program w.src))
        (Jir.Pp.program_to_string (Jir.Parser.parse_program crlf)))
    Workloads.Registry.all

let prop_generated_verify =
  QCheck2.Test.make ~name:"generated programs verify" ~count:200
    Gen.gen_program (fun p ->
      match Jir.Verifier.verify_program (Jir.Program.of_program p) with
      | Ok () -> true
      | Error _ -> false)

let unit_tests =
  [
    ("lexer comments/blanks", test_lexer_comments_and_blanks);
    ("lexer line numbers", test_lexer_line_numbers);
    ("CRLF workloads parse like LF", test_crlf_workloads);
    ("parse errors", test_parse_errors);
    ("header variants", test_parse_header_variants);
    ("ctor flag", test_parse_ctor_flag);
    ("handlers round-trip", test_handlers_roundtrip);
    ("workloads round-trip", test_workloads_roundtrip);
    ("every mnemonic round-trips", test_every_mnemonic_roundtrips);
  ]

let tests =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f) unit_tests
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_generated_roundtrip; prop_generated_verify ]
