(** Pretty-printing of JIR programs in the [jasm] textual assembly syntax.

    The output of {!pp_program} parses back with {!Parser.parse_program} to
    an equal program (round-trip property, tested with qcheck).  Grammar
    sketch (one construct per line, [;] and [#] start comments):

    {v
    class Node
      field ref next
      static int count
      method ref expand (ref) locals 4
        iconst 0
        istore 1
      loop:
        iload 1
        ...
        goto loop
        catch bounds try_start try_end handler
      end
    end
    v} *)

open Types

let string_of_ret = function
  | None -> "void"
  | Some I -> "int"
  | Some R -> "ref"

let string_of_ty = function I -> "int" | R -> "ref"

(** Mnemonic and arguments of one instruction, with targets shown through
    [lbl : int -> string]. *)
let instr_to_string ~lbl (i : int instr) : string =
  let fr (r : field_ref) = r.fclass ^ "." ^ r.fname in
  let mr (r : method_ref) = r.mclass ^ "." ^ r.mname in
  match i with
  | Iconst n -> Printf.sprintf "iconst %d" n
  | Aconst_null -> "aconst_null"
  | Iload n -> Printf.sprintf "iload %d" n
  | Istore n -> Printf.sprintf "istore %d" n
  | Aload n -> Printf.sprintf "aload %d" n
  | Astore n -> Printf.sprintf "astore %d" n
  | Iinc (n, d) -> Printf.sprintf "iinc %d %d" n d
  | Ibin op -> string_of_ibin op
  | Ineg -> "ineg"
  | Dup -> "dup"
  | Pop -> "pop"
  | Swap -> "swap"
  | Goto l -> "goto " ^ lbl l
  | If_i (c, l) -> Printf.sprintf "if%s %s" (string_of_cond c) (lbl l)
  | If_icmp (c, l) ->
      Printf.sprintf "if_icmp%s %s" (string_of_cond c) (lbl l)
  | If_null l -> "ifnull " ^ lbl l
  | If_nonnull l -> "ifnonnull " ^ lbl l
  | If_acmp (true, l) -> "if_acmpeq " ^ lbl l
  | If_acmp (false, l) -> "if_acmpne " ^ lbl l
  | Getstatic r -> "getstatic " ^ fr r
  | Putstatic r -> "putstatic " ^ fr r
  | Getfield r -> "getfield " ^ fr r
  | Putfield r -> "putfield " ^ fr r
  | New c -> "new " ^ c
  | Newarray (Elem_ref c) -> "anewarray " ^ c
  | Newarray Elem_int -> "inewarray"
  | Aaload -> "aaload"
  | Aastore -> "aastore"
  | Iaload -> "iaload"
  | Iastore -> "iastore"
  | Arraylength -> "arraylength"
  | Invoke r -> "invoke " ^ mr r
  | Spawn r -> "spawn " ^ mr r
  | Return -> "return"
  | Ireturn -> "ireturn"
  | Areturn -> "areturn"

(** Labels used by a method: declared label names where present, otherwise
    fresh [L<pc>] names for every branch target and handler boundary. *)
let label_map (m : meth) : (int, string) Hashtbl.t =
  let tbl = Hashtbl.create 8 in
  List.iter (fun (pc, name) -> Hashtbl.replace tbl pc name) m.labels;
  let ensure pc =
    if not (Hashtbl.mem tbl pc) then
      Hashtbl.replace tbl pc (Printf.sprintf "L%d" pc)
  in
  Array.iter (fun i -> List.iter ensure (targets i)) m.code;
  List.iter
    (fun h ->
      ensure h.from_pc;
      ensure h.to_pc;
      ensure h.target)
    m.handlers;
  tbl

let pp_meth ppf (m : meth) =
  let tbl = label_map m in
  let lbl pc =
    match Hashtbl.find_opt tbl pc with
    | Some s -> s
    | None -> Printf.sprintf "L%d" pc
  in
  let params =
    String.concat " " (List.map string_of_ty m.params)
  in
  Fmt.pf ppf "  method %s %s (%s) locals %d%s@\n" (string_of_ret m.ret)
    m.mname params m.max_locals
    (if m.is_constructor then " ctor" else "");
  Array.iteri
    (fun pc i ->
      (match Hashtbl.find_opt tbl pc with
      | Some name -> Fmt.pf ppf "  %s:@\n" name
      | None -> ());
      Fmt.pf ppf "    %s@\n" (instr_to_string ~lbl i))
    m.code;
  (* a label may sit just past the last instruction (e.g. handler end) *)
  (match Hashtbl.find_opt tbl (Array.length m.code) with
  | Some name -> Fmt.pf ppf "  %s:@\n" name
  | None -> ());
  List.iter
    (fun h ->
      Fmt.pf ppf "    catch %s %s %s %s@\n"
        (string_of_exn_kind h.kind)
        (lbl h.from_pc) (lbl h.to_pc) (lbl h.target))
    m.handlers;
  Fmt.pf ppf "  end@\n"

let pp_cls ppf (c : cls) =
  Fmt.pf ppf "class %s@\n" c.cname;
  List.iter
    (fun fd -> Fmt.pf ppf "  field %s %s@\n" (string_of_ty fd.fd_ty) fd.fd_name)
    c.fields;
  List.iter
    (fun fd ->
      Fmt.pf ppf "  static %s %s@\n" (string_of_ty fd.fd_ty) fd.fd_name)
    c.statics;
  List.iter (pp_meth ppf) c.methods;
  Fmt.pf ppf "end@\n"

let pp_program ppf (p : program) =
  List.iter (fun c -> Fmt.pf ppf "%a@\n" pp_cls c) p.classes

let program_to_string (p : program) = Fmt.str "%a" pp_program p
