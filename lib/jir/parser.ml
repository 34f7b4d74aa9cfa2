(** Recursive-descent parser for jasm assembly (see {!Pp} for the grammar).

    Parsing produces a {!Types.program} with label references resolved to
    instruction indices via {!Builder}. *)

open Types

exception Parse_error of { lineno : int; message : string }

let errf lineno fmt =
  Fmt.kstr (fun message -> raise (Parse_error { lineno; message })) fmt

let pp_error ppf = function
  | Parse_error { lineno; message } ->
      Fmt.pf ppf "jasm: line %d: %s" lineno message
  | e -> Fmt.pf ppf "%s" (Printexc.to_string e)

let ty_of_string lineno = function
  | "int" -> I
  | "ref" -> R
  | s -> errf lineno "expected type int or ref, got %S" s

let ret_of_string lineno = function
  | "void" -> None
  | "int" -> Some I
  | "ref" -> Some R
  | s -> errf lineno "expected return type void/int/ref, got %S" s

let int_of_token lineno s =
  match int_of_string_opt s with
  | Some n -> n
  | None -> errf lineno "expected integer, got %S" s

(** Split ["C.f"] into a field or method reference. *)
let split_dotted lineno s =
  match String.index_opt s '.' with
  | Some i when i > 0 && i < String.length s - 1 ->
      (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  | Some _ | None -> errf lineno "expected Class.member, got %S" s

let field_ref_of lineno s =
  let fclass, fname = split_dotted lineno s in
  { fclass; fname }

let method_ref_of lineno s =
  let mclass, mname = split_dotted lineno s in
  { mclass; mname }

(** Parse one instruction line into a label-parameterized instruction, or
    return [None] when the mnemonic is not an instruction (so the caller can
    try directives). *)
let instr_of_tokens lineno (tokens : string list) : string instr option =
  let one_int k = function
    | [ s ] -> Some (k (int_of_token lineno s))
    | args -> errf lineno "expected 1 integer argument, got %d" (List.length args)
  in
  let one_lbl k = function
    | [ l ] -> Some (k l)
    | args -> errf lineno "expected 1 label argument, got %d" (List.length args)
  in
  let one_fr k = function
    | [ s ] -> Some (k (field_ref_of lineno s))
    | args -> errf lineno "expected Class.field, got %d tokens" (List.length args)
  in
  let one_mr k = function
    | [ s ] -> Some (k (method_ref_of lineno s))
    | args -> errf lineno "expected Class.method, got %d tokens" (List.length args)
  in
  let nullary i = function
    | [] -> Some i
    | args -> errf lineno "unexpected arguments (%d)" (List.length args)
  in
  match tokens with
  | [] -> None
  | mnemonic :: args -> (
      let cond_branch prefix k =
        (* mnemonic = prefix ^ cond, e.g. "if_icmplt" *)
        let plen = String.length prefix in
        if
          String.length mnemonic > plen
          && String.sub mnemonic 0 plen = prefix
        then
          match
            cond_of_string
              (String.sub mnemonic plen (String.length mnemonic - plen))
          with
          | Some c -> one_lbl (fun l -> k (c, l)) args
          | None -> None
        else None
      in
      match mnemonic with
      | "iconst" -> one_int (fun n -> Iconst n) args
      | "aconst_null" -> nullary Aconst_null args
      | "iload" -> one_int (fun n -> Iload n) args
      | "istore" -> one_int (fun n -> Istore n) args
      | "aload" -> one_int (fun n -> Aload n) args
      | "astore" -> one_int (fun n -> Astore n) args
      | "iinc" -> (
          match args with
          | [ a; b ] ->
              Some (Iinc (int_of_token lineno a, int_of_token lineno b))
          | _ -> errf lineno "iinc expects 2 arguments")
      | "iadd" -> nullary (Ibin Add) args
      | "isub" -> nullary (Ibin Sub) args
      | "imul" -> nullary (Ibin Mul) args
      | "idiv" -> nullary (Ibin Div) args
      | "irem" -> nullary (Ibin Rem) args
      | "ineg" -> nullary Ineg args
      | "dup" -> nullary Dup args
      | "pop" -> nullary Pop args
      | "swap" -> nullary Swap args
      | "goto" -> one_lbl (fun l -> Goto l) args
      | "ifnull" -> one_lbl (fun l -> If_null l) args
      | "ifnonnull" -> one_lbl (fun l -> If_nonnull l) args
      | "if_acmpeq" -> one_lbl (fun l -> If_acmp (true, l)) args
      | "if_acmpne" -> one_lbl (fun l -> If_acmp (false, l)) args
      | "getstatic" -> one_fr (fun r -> Getstatic r) args
      | "putstatic" -> one_fr (fun r -> Putstatic r) args
      | "getfield" -> one_fr (fun r -> Getfield r) args
      | "putfield" -> one_fr (fun r -> Putfield r) args
      | "new" -> (
          match args with
          | [ c ] -> Some (New c)
          | _ -> errf lineno "new expects a class name")
      | "anewarray" -> (
          match args with
          | [ c ] -> Some (Newarray (Elem_ref c))
          | _ -> errf lineno "anewarray expects a class name")
      | "inewarray" -> nullary (Newarray Elem_int) args
      | "aaload" -> nullary Aaload args
      | "aastore" -> nullary Aastore args
      | "iaload" -> nullary Iaload args
      | "iastore" -> nullary Iastore args
      | "arraylength" -> nullary Arraylength args
      | "invoke" -> one_mr (fun r -> Invoke r) args
      | "spawn" -> one_mr (fun r -> Spawn r) args
      | "return" -> nullary Return args
      | "ireturn" -> nullary Ireturn args
      | "areturn" -> nullary Areturn args
      | _ -> (
          match cond_branch "if_icmp" (fun (c, l) -> If_icmp (c, l)) with
          | Some _ as r -> r
          | None -> cond_branch "if" (fun (c, l) -> If_i (c, l))))

let is_label_decl tok =
  String.length tok > 1 && tok.[String.length tok - 1] = ':'

let label_name tok = String.sub tok 0 (String.length tok - 1)

(** Parse the body of a method until [end]; returns the finished method and
    the remaining lines. *)
let parse_method_body lineno ~name ~params ~ret ~locals ~ctor lines =
  let rec loop b = function
    | [] -> errf lineno "method %s: missing end" name
    | ({ Lexer.lineno = ln; tokens } : Lexer.line) :: rest -> (
        match tokens with
        | [ "end" ] -> (Builder.finish b, rest)
        | [ tok ] when is_label_decl tok ->
            (try Builder.label b (label_name tok)
             with Builder.Build_error m -> errf ln "%s" m);
            loop b rest
        | "catch" :: args -> (
            match args with
            | [ kind_s; from_lbl; to_lbl; target_lbl ] -> (
                match exn_kind_of_string kind_s with
                | Some kind ->
                    Builder.handler b ~from_lbl ~to_lbl ~target_lbl kind;
                    loop b rest
                | None -> errf ln "unknown exception kind %S" kind_s)
            | _ -> errf ln "catch expects: kind from to handler")
        | _ -> (
            match instr_of_tokens ln tokens with
            | Some i ->
                Builder.emit b i;
                loop b rest
            | None ->
                errf ln "unknown instruction %S" (String.concat " " tokens)))
  in
  try loop (Builder.create ~name ~params ?ret ~ctor ~locals ()) lines
  with Builder.Build_error m -> errf lineno "%s" m

(** The JVM's bound on a method's local variables ([max_locals] is a u2). *)
let max_locals = 65535

(** Parse a method header line:
    [method <ret> <name> ( <tys> ) locals <n> [ctor]]. *)
let parse_method_header lineno args =
  (* args: ret name (tys...) locals n [ctor]; parens are separate tokens or
     attached — accept both ["("; "ref"; ")"] and ["(ref)"] forms by
     re-splitting on parens. *)
  let resplit tok =
    let buf = Buffer.create (String.length tok) in
    let out = ref [] in
    let flush () =
      if Buffer.length buf > 0 then begin
        out := Buffer.contents buf :: !out;
        Buffer.clear buf
      end
    in
    String.iter
      (fun c ->
        match c with
        | '(' | ')' ->
            flush ();
            out := String.make 1 c :: !out
        | c -> Buffer.add_char buf c)
      tok;
    flush ();
    List.rev !out
  in
  match List.concat_map resplit args with
  | ret_s :: name :: "(" :: rest ->
      let rec take_params acc = function
        | ")" :: rest -> (List.rev acc, rest)
        | ty_s :: rest -> take_params (ty_of_string lineno ty_s :: acc) rest
        | [] -> errf lineno "method header: missing )"
      in
      let params, rest = take_params [] rest in
      let ret = ret_of_string lineno ret_s in
      let locals, ctor =
        match rest with
        | [ "locals"; n ] -> (int_of_token lineno n, false)
        | [ "locals"; n; "ctor" ] -> (int_of_token lineno n, true)
        | _ -> errf lineno "method header: expected 'locals <n> [ctor]'"
      in
      if locals > max_locals then
        errf lineno "method %s: locals %d exceeds %d" name locals max_locals;
      (name, params, ret, locals, ctor)
  | _ -> errf lineno "malformed method header"

(** Parse the members of a class until [end]. *)
let parse_class_body lineno cname lines =
  let rec loop fields statics methods = function
    | [] -> errf lineno "class %s: missing end" cname
    | ({ Lexer.lineno = ln; tokens } : Lexer.line) :: rest -> (
        match tokens with
        | [ "end" ] ->
            ( {
                cname;
                fields = List.rev fields;
                statics = List.rev statics;
                methods = List.rev methods;
              },
              rest )
        | [ "field"; ty_s; fname ] ->
            let fd = { fd_name = fname; fd_ty = ty_of_string ln ty_s } in
            loop (fd :: fields) statics methods rest
        | [ "static"; ty_s; fname ] ->
            let fd = { fd_name = fname; fd_ty = ty_of_string ln ty_s } in
            loop fields (fd :: statics) methods rest
        | "method" :: args ->
            let name, params, ret, locals, ctor =
              parse_method_header ln args
            in
            let m, rest =
              parse_method_body ln ~name ~params ~ret ~locals ~ctor rest
            in
            loop fields statics (m :: methods) rest
        | _ ->
            errf ln "unexpected line in class %s: %S" cname
              (String.concat " " tokens))
  in
  loop [] [] [] lines

let parse_program (src : string) : program =
  let rec loop classes = function
    | [] -> { classes = List.rev classes }
    | ({ Lexer.lineno = ln; tokens } : Lexer.line) :: rest -> (
        match tokens with
        | [ "class"; cname ] ->
            let c, rest = parse_class_body ln cname rest in
            loop (c :: classes) rest
        | _ ->
            errf ln "expected 'class <name>', got %S"
              (String.concat " " tokens))
  in
  loop [] (Lexer.tokenize src)

(** Parse and link in one step. *)
let parse_linked (src : string) : Program.t =
  Program.of_program (parse_program src)
