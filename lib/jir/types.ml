(** Core type definitions for the JIR bytecode intermediate representation.

    JIR is a faithful subset of JVM stack bytecode: a class table of classes
    with typed instance and static fields, and methods whose bodies are
    arrays of stack-machine instructions.  Branch targets are instruction
    indices once a method is assembled; the builder and the jasm assembler
    work with symbolic labels and resolve them (see {!Builder} and
    {!Parser}).

    All methods are "static-style": an instance method simply receives its
    receiver as parameter 0.  There is no virtual dispatch — the analysis of
    the reproduced paper treats every non-inlined call identically (all
    reference arguments escape), so dispatch precision is irrelevant. *)

type ty =
  | I  (** 62-bit integer (see {!wrap}) *)
  | R  (** object or array reference *)

(** [n] as a program int: 62-bit two's complement.  Both engines compute
    in this width (the threaded engine's tagged encoding keeps 62 payload
    bits), and so does the analysis's literal arithmetic. *)
let[@inline] wrap n = (n lsl 1) asr 1

let equal_ty a b =
  match a, b with
  | I, I | R, R -> true
  | I, R | R, I -> false

let pp_ty ppf = function
  | I -> Fmt.string ppf "int"
  | R -> Fmt.string ppf "ref"

type class_name = string
type field_name = string
type method_name = string

(** A resolved reference to a field of a class (instance or static). *)
type field_ref = { fclass : class_name; fname : field_name }

let equal_field_ref a b =
  String.equal a.fclass b.fclass && String.equal a.fname b.fname

let compare_field_ref a b =
  match String.compare a.fclass b.fclass with
  | 0 -> String.compare a.fname b.fname
  | c -> c

let pp_field_ref ppf { fclass; fname } = Fmt.pf ppf "%s.%s" fclass fname

(** A resolved reference to a method of a class. *)
type method_ref = { mclass : class_name; mname : method_name }

let equal_method_ref a b =
  String.equal a.mclass b.mclass && String.equal a.mname b.mname

let pp_method_ref ppf { mclass; mname } = Fmt.pf ppf "%s.%s" mclass mname

(** Comparison conditions for integer branches. *)
type cond = Eq | Ne | Lt | Ge | Gt | Le

let string_of_cond = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Ge -> "ge"
  | Gt -> "gt"
  | Le -> "le"

let cond_of_string = function
  | "eq" -> Some Eq
  | "ne" -> Some Ne
  | "lt" -> Some Lt
  | "ge" -> Some Ge
  | "gt" -> Some Gt
  | "le" -> Some Le
  | _ -> None

let eval_cond c a b =
  match c with
  | Eq -> a = b
  | Ne -> a <> b
  | Lt -> a < b
  | Ge -> a >= b
  | Gt -> a > b
  | Le -> a <= b

(** Binary integer operations. *)
type ibin = Add | Sub | Mul | Div | Rem

let string_of_ibin = function
  | Add -> "iadd"
  | Sub -> "isub"
  | Mul -> "imul"
  | Div -> "idiv"
  | Rem -> "irem"

(** Element type of an array allocation. *)
type elem_ty =
  | Elem_ref of class_name  (** object array; elements start null *)
  | Elem_int  (** int array; elements start 0 *)

(** Instructions, parameterized by the branch-target representation:
    ['lbl = string] while building or parsing, ['lbl = int] (instruction
    index) in an assembled {!meth}. *)
type 'lbl instr =
  | Iconst of int  (** push integer constant *)
  | Aconst_null  (** push null *)
  | Iload of int  (** push int local *)
  | Istore of int  (** pop int into local *)
  | Aload of int  (** push ref local *)
  | Astore of int  (** pop ref into local *)
  | Iinc of int * int  (** add constant to int local, no stack effect *)
  | Ibin of ibin  (** pop two ints, push result *)
  | Ineg  (** negate top int *)
  | Dup  (** duplicate top of stack *)
  | Pop  (** discard top of stack *)
  | Swap  (** exchange the two top stack slots *)
  | Goto of 'lbl
  | If_i of cond * 'lbl  (** pop int, branch if [int cond 0] *)
  | If_icmp of cond * 'lbl  (** pop two ints, branch on comparison *)
  | If_null of 'lbl  (** pop ref, branch if null *)
  | If_nonnull of 'lbl  (** pop ref, branch if non-null *)
  | If_acmp of bool * 'lbl  (** pop two refs, branch if equal (true) / not *)
  | Getstatic of field_ref
  | Putstatic of field_ref
  | Getfield of field_ref  (** pop receiver, push field value *)
  | Putfield of field_ref  (** pop value then receiver, store *)
  | New of class_name  (** allocate object, fields zeroed, push ref *)
  | Newarray of elem_ty  (** pop length, allocate array, push ref *)
  | Aaload  (** pop index, array; push element (ref array) *)
  | Aastore  (** pop value, index, array; store element (ref array) *)
  | Iaload  (** pop index, array; push element (int array) *)
  | Iastore  (** pop value, index, array; store element (int array) *)
  | Arraylength  (** pop array ref, push its length *)
  | Invoke of method_ref  (** call; args pushed left-to-right *)
  | Spawn of method_ref  (** start a new thread running the method *)
  | Return  (** return void *)
  | Ireturn  (** return top int *)
  | Areturn  (** return top ref *)

(** Kinds of runtime exception a handler can catch. *)
type exn_kind =
  | Bounds  (** array index out of bounds or negative array size *)
  | Null_deref
  | Arith  (** division / remainder by zero *)
  | Any

let string_of_exn_kind = function
  | Bounds -> "bounds"
  | Null_deref -> "null"
  | Arith -> "arith"
  | Any -> "any"

let exn_kind_of_string = function
  | "bounds" -> Some Bounds
  | "null" -> Some Null_deref
  | "arith" -> Some Arith
  | "any" -> Some Any
  | _ -> None

(** An exception handler covering instructions [from_pc, to_pc) and
    transferring control to [target] with an empty operand stack. *)
type 'lbl handler = {
  from_pc : 'lbl;
  to_pc : 'lbl;
  target : 'lbl;
  kind : exn_kind;
}

(** An assembled method. *)
type meth = {
  mname : method_name;
  params : ty list;  (** includes the receiver for instance methods *)
  ret : ty option;
  is_constructor : bool;
      (** constructors receive a fresh, unescaped receiver as param 0 whose
          declared fields are null on entry (paper §2.3) *)
  max_locals : int;
  code : int instr array;
  handlers : int handler list;
  labels : (int * string) list;
      (** pc → label name; only used to render jasm faithfully *)
}

type field_decl = { fd_name : field_name; fd_ty : ty }

type cls = {
  cname : class_name;
  fields : field_decl list;  (** instance fields *)
  statics : field_decl list;
  methods : meth list;
}

type program = { classes : cls list }

(** [map_label f i] rewrites the branch targets of [i] with [f]. *)
let map_label f = function
  | Goto l -> Goto (f l)
  | If_i (c, l) -> If_i (c, f l)
  | If_icmp (c, l) -> If_icmp (c, f l)
  | If_null l -> If_null (f l)
  | If_nonnull l -> If_nonnull (f l)
  | If_acmp (eq, l) -> If_acmp (eq, f l)
  | Iconst n -> Iconst n
  | Aconst_null -> Aconst_null
  | Iload n -> Iload n
  | Istore n -> Istore n
  | Aload n -> Aload n
  | Astore n -> Astore n
  | Iinc (n, d) -> Iinc (n, d)
  | Ibin op -> Ibin op
  | Ineg -> Ineg
  | Dup -> Dup
  | Pop -> Pop
  | Swap -> Swap
  | Getstatic fr -> Getstatic fr
  | Putstatic fr -> Putstatic fr
  | Getfield fr -> Getfield fr
  | Putfield fr -> Putfield fr
  | New c -> New c
  | Newarray e -> Newarray e
  | Aaload -> Aaload
  | Aastore -> Aastore
  | Iaload -> Iaload
  | Iastore -> Iastore
  | Arraylength -> Arraylength
  | Invoke mr -> Invoke mr
  | Spawn mr -> Spawn mr
  | Return -> Return
  | Ireturn -> Ireturn
  | Areturn -> Areturn

(** Branch targets of an instruction (empty for non-branches). *)
let targets = function
  | Goto l | If_i (_, l) | If_icmp (_, l) | If_null l | If_nonnull l
  | If_acmp (_, l) ->
      [ l ]
  | Iconst _ | Aconst_null | Iload _ | Istore _ | Aload _ | Astore _
  | Iinc _ | Ibin _ | Ineg | Dup | Pop | Swap | Getstatic _ | Putstatic _
  | Getfield _ | Putfield _ | New _ | Newarray _ | Aaload | Aastore | Iaload
  | Iastore | Arraylength | Invoke _ | Spawn _ | Return | Ireturn | Areturn
    ->
      []

(** Does control never fall through to the next instruction? *)
let is_terminal = function
  | Goto _ | Return | Ireturn | Areturn -> true
  | Iconst _ | Aconst_null | Iload _ | Istore _ | Aload _ | Astore _
  | Iinc _ | Ibin _ | Ineg | Dup | Pop | Swap | If_i _ | If_icmp _
  | If_null _ | If_nonnull _ | If_acmp _ | Getstatic _ | Putstatic _
  | Getfield _ | Putfield _ | New _ | Newarray _ | Aaload | Aastore
  | Iaload | Iastore | Arraylength | Invoke _ | Spawn _ ->
      false

(** Instructions that store a reference into the heap and therefore carry an
    SATB write barrier unless the analysis removes it. *)
type store_kind = Field_store | Array_store | Static_store

let store_kind_of_instr = function
  | Putfield _ -> Some Field_store
  | Aastore -> Some Array_store
  | Putstatic _ -> Some Static_store
  | _ -> None

(** The runtime assumptions an elided barrier may stand on.  Unconditional
    verdicts (pre-null, null-or-same, dead code) carry none; the §4.3
    extensions are conditional — on a single mutator, on the collector's
    array-scan direction, on the retrace protocol, and on the array
    analysis (mode A) that identified the arrays involved — and a
    verdict proved through a callee summary stands on the closed world.
    The analysis attaches them to its verdicts; the runtime revokes every
    dependent elision once one is observed false. *)
type assumption =
  | Single_mutator
  | Retrace_collector
  | Descending_scan
  | Mode_a
  | Closed_world

let string_of_assumption = function
  | Single_mutator -> "single-mutator"
  | Retrace_collector -> "retrace-collector"
  | Descending_scan -> "descending-scan"
  | Mode_a -> "mode-A"
  | Closed_world -> "closed-world"

(** A reference-store site of a compiled (inlined) program: the store
    instruction at [s_pc] of method [s_method] of class [s_class]. *)
type site = { s_class : class_name; s_method : method_name; s_pc : int }

(** ["Class.method\@pc"], the site id of traces, [--explain], revocation
    events and profile rows. *)
let string_of_site (s : site) : string =
  Printf.sprintf "%s.%s@%d" s.s_class s.s_method s.s_pc

(** What the retrace collector's compiler emits at a swap-elided store:
    nothing, or a tracing-state check that additionally opens (store 1 of
    the pair) or closes (store 2) a safepoint-free window.  The scheduler
    defers collector work while a window is open, so the collector never
    observes a half-completed swap. *)
type retrace_site = No_check | Check_open | Check_close

(** One store site's verdict, as the compiler hands it to the runtime.
    The deletion half is SATB's whole verdict; only a hybrid barrier
    reads the insertion half.  Each half carries the assumptions its
    elision stands on (its {e guards}): once one is observed false the
    half is {e revoked} — flipped back to a full barrier at a safepoint —
    and the revocation names that half's justification. *)
type verdict = {
  del_elide : bool;  (** the deletion (Yuasa / SATB) half was compiled out *)
  del_guards : assumption list;
  ins_elide : bool;  (** the insertion (Dijkstra) half was compiled out *)
  ins_guards : assumption list;
  ins_repair : bool;
      (** insertion-elided destinations join the repair set handed to the
          collector at remark (fresh-value proofs need the re-scan; a
          proven-null store does not) *)
  check : retrace_site;  (** compiled in place of the deletion half *)
  del_why : string option Lazy.t;
      (** the analysis's justification of the deletion elision, built
          only when a [revoke.site] record or a profile row reads it *)
  ins_why : string option Lazy.t;  (** likewise the insertion elision *)
}

(** Both halves kept: no guards, no check, no justification. *)
let keep =
  {
    del_elide = false;
    del_guards = [];
    ins_elide = false;
    ins_guards = [];
    ins_repair = false;
    check = No_check;
    del_why = Lazy.from_val None;
    ins_why = Lazy.from_val None;
  }
