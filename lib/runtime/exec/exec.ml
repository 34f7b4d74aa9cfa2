(** Direct-threaded execution engine for verified jir methods.

    Each method compiles once into arrays of OCaml closures ("ops"), one
    per bytecode, with everything resolvable at compile time
    preresolved: field offsets, static cells, callee code, branch
    targets, allocation shapes.  On top of the one-op-per-instruction
    array sits a {e fused} array: a small expression compiler runs
    maximal munch over each basic block and collapses producer chains
    into their consumers — so [getstatic; iload; aaload; astore] becomes
    one closure that reads the static cell, indexes the array and writes
    the local, with no operand-stack traffic and a single dispatch.  A
    fused opcode may cover several such statements, up to the block's
    terminating branch.

    Reference stores compile to fused opcodes specialized per verdict
    half (paid / deletion-elided / insertion-elided / both-elided; see
    the [Interp.barrier_*] bodies): the site's {!Interp.site_stats}
    record is cached in the opcode and the verdict baked into which
    fused body runs.  Each store site carries an {e epoch stamp}:
    safepoint revocation, degraded-mode entry and cycle resets bump
    {!Interp.t.barrier_epoch}, and a stamped site respecializes itself
    the next time it executes — per-site invalidation through one
    integer comparison on the store fast path, no global flush.

    Fused opcodes execute only when they fit {e entirely} inside the
    current slice's fuel; near a safepoint boundary the engine falls
    back to the single-op array.  This is what keeps the two engines
    bit-identical: a safepoint can interrupt the interpreter mid-pattern
    with partial results on the operand stack, and in exactly those
    schedules the threaded engine ran the same instructions one op at a
    time, leaving an identical stack for root enumeration.

    The engine shares the interpreter's whole substrate — heap, statics
    table (written through), counters, site stats, GC hooks, pacer,
    chaos faults — so the {!Runner}'s safepoint cadence and every
    telemetry counter are engine-independent, and the step-accurate
    {!Interp} remains a differential-testing oracle.  Root enumeration
    is routed through {!Interp.t.stack_roots_override} and reproduces
    the interpreter's exact visit order (frames top first, locals in
    index order, operand stack top first, prepend-accumulated), because
    concurrent-marking progress depends on root order.

    Engine registers — operand-stack slots and locals — hold values in
    an {e unboxed tagged-int encoding} (see {!encode}), so register
    traffic is plain immediate-int array stores: no allocation, no OCaml
    write barrier.  The heap, statics table and barrier interfaces keep
    the interpreter's boxed {!Value.t}; conversion happens only at heap
    loads/stores, and integer-typed data never boxes at all.

    Deviations from the interpreter, by design and only observable from
    {e unverified} code (the verifier rules all of them out): operand
    stack underflow surfaces as an array-bounds error rather than
    [Runtime_bug], type-confusion errors inside a fused opcode surface
    in operand-evaluation order rather than pop order, method/static
    resolution happens at method-compile time rather than first
    execution, and integers wrap at 62 bits rather than 63 (the tag
    bit; both stand in for Java's 32-bit ints, and overflow behaviour
    is unspecified in jir). *)

open Jir.Types
module I = Interp

let bugf = I.bugf

(* ---- unboxed value encoding -------------------------------------------- *)

(* Registers hold values as immediate tagged ints: bit 0 set = Int
   (payload in the upper bits), 0 = Null, any other even value = Ref
   (id + 1, shifted).  The encoding is injective and order-preserving
   on ints, so integer compares run directly on encoded values. *)

let enc_int n = (n lsl 1) lor 1
let enc_ref id = (id + 1) lsl 1

let encode = function
  | Value.Null -> 0
  | Value.Int n -> enc_int n
  | Value.Ref id -> enc_ref id

let decode v =
  if v land 1 = 1 then Value.Int (v asr 1)
  else if v = 0 then Value.Null
  else Value.Ref ((v asr 1) - 1)

(* ---- compiled code ----------------------------------------------------- *)

type eframe = {
  ef_home : cmeth;  (** owning compiled method — names, handlers, pool *)
  ef_ops : op array;  (** one op per bytecode *)
  ef_fuse : op array;  (** fused op starting at each pc (= single if none) *)
  ef_klen : int array;  (** instructions the fused op at each pc covers *)
  ef_pooled : bool;
      (** engine-created (recyclable); adopted frames were sized from an
          interpreter frame and never recycle *)
  mutable epc : int;
  elocals : int array;  (** encoded values, see {!encode} *)
  estack : int array;  (** index 0 = bottom; slots above [esp] stale *)
  mutable esp : int;
}

and ethread = {
  ith : I.thread;
      (** shared identity: tid, [finished]/[error] written back so the
          scheduler and reports see the engine's threads unchanged *)
  mutable eframes : eframe array;
      (** frame stack, bottom at index 0; slots at [efp] and above are
          stale (calls and returns never allocate, they bump [efp]) *)
  mutable efp : int;  (** live frame count; top of stack = [efp - 1] *)
}

and op = ethread -> eframe -> unit

and cmeth = {
  cm_class : class_name;
  cm_meth : meth;
  mutable cm_ops : op array;
  mutable cm_fuse : op array;
  mutable cm_klen : int array;
      (** arrays filled after the record is memoized, so recursive and
          mutually recursive calls can link against the record itself *)
  cm_nargs : int;
  cm_max_locals : int;
  cm_stack_cap : int;  (** dataflow max operand depth, plus slack *)
  mutable cm_pool : eframe array;
      (** recycled frames (a stack, [cm_npool] live): calls reuse
          locals/stack arrays instead of allocating — invisible to the
          heap model, since roots only ever walk the live [eframes]
          prefixes *)
  mutable cm_npool : int;
}

(** A compiled reference-store site: the fused barrier body chosen for
    the site's current verdict, plus the epoch stamp it was specialized
    against. *)
type store_cell = {
  cell_site : I.site;
  cell_kind : store_kind;
  cell_id : string;
      (** the site's id, formatted once at compile time so a
          respecialization record inside the timed loop formats nothing *)
  mutable cell_stamp : int;  (** -1 = never specialized *)
  mutable cell_exec : tid:int -> obj:int -> pre:Value.t -> nv:Value.t -> unit;
}

(** A preresolved static slot.  Reads hit the cell; writes go through to
    the interpreter's statics table as well, so root enumeration, traces
    and the differential oracle see identical statics at all times
    (every key exists from machine creation, so [Hashtbl.replace]
    mutates in place and iteration order never changes). *)
type static_cell = {
  sc_key : class_name * field_name;
  mutable sc_v : Value.t;
  mutable sc_enc : int;  (** [encode sc_v], kept in lockstep *)
}

type t = {
  m : I.t;
  methods : (class_name * method_name, cmeth) Hashtbl.t;
  threads : (int, ethread) Hashtbl.t;  (** by tid *)
  statics : (class_name * field_name, static_cell) Hashtbl.t;
  mutable last : ethread option;  (** slice-to-slice thread cache *)
  slice_n : int ref;
      (** instructions charged by the slice in flight but not yet flushed
          to [instr_count]; the flight recorder's step source adds it so
          mid-slice events land on their true step *)
  mutable fuse_start : int;
      (** block-start pc of the fused op in flight, -1 outside one; with
          [fuse_ep] it recovers the instructions a fused block has
          consumed when a sub-op records mid-block *)
  mutable fuse_ep : int;
      (** pc published by the recording sub-ops (the ref stores) just
          before barrier work; -1 until one runs in the current block *)
}

(* ---- operand stack ----------------------------------------------------- *)

(* operands are encoded ints throughout, see {!encode} *)

let push fr v =
  fr.estack.(fr.esp) <- v;
  fr.esp <- fr.esp + 1

let pop fr =
  let sp = fr.esp - 1 in
  fr.esp <- sp;
  fr.estack.(sp)

let pop_int fr =
  let v = pop fr in
  if v land 1 = 1 then v asr 1
  else bugf "expected int, got %a" Value.pp (decode v)

let pop_ref_or_null fr =
  let v = pop fr in
  if v land 1 = 0 then v else bugf "expected ref, got int"

let deref (m : I.t) fr (v : int) : Heap.obj =
  if v land 1 = 1 then bugf "expected ref, got int"
  else if v = 0 then I.jthrow Null_deref
  else begin
    (* inlined Heap.get: encoded refs come only from the allocator, so
       id >= 0 and id < next_id hold by construction; the array read
       keeps its own bounds check as the backstop *)
    let id = (v asr 1) - 1 in
    let o = m.I.heap.Heap.objects.(id) in
    if o.Heap.dead then
      bugf "use-after-free of #%d (%s) at %s.%s@%d" id o.Heap.cls
        fr.ef_home.cm_class fr.ef_home.cm_meth.mname fr.epc;
    o
  end

let pop_obj (m : I.t) fr = deref m fr (pop fr)

let fields_of (o : Heap.obj) =
  match o.Heap.payload with
  | Heap.Fields fs -> fs
  | Heap.Ref_array _ | Heap.Int_array _ -> bugf "expected object, got array"

let ref_elems_of (o : Heap.obj) =
  match o.Heap.payload with
  | Heap.Ref_array es -> es
  | Heap.Fields _ | Heap.Int_array _ -> bugf "expected object array"

let int_elems_of (o : Heap.obj) =
  match o.Heap.payload with
  | Heap.Int_array es -> es
  | Heap.Fields _ | Heap.Ref_array _ -> bugf "expected int array"

(* ---- barrier specialization -------------------------------------------- *)

(** (Re)specialize a store site against the machine's current epoch:
    materialize (or find) its stats — the same lazy materialization, in
    the same first-execution order, as the interpreter — and pick the
    fused body its verdict qualifies for.  Anything with a tracing-state
    check, a live guard on a fused-ineligible shape, or a degraded
    interaction falls back to the shared general body. *)
let specialize (m : I.t) (cell : store_cell) : unit =
  let st = I.site_stats m cell.cell_site cell.cell_kind in
  Flight.record
    (Flight.Respecialize { site = cell.cell_id; epoch = m.I.barrier_epoch });
  cell.cell_stamp <- m.I.barrier_epoch;
  cell.cell_exec <-
    (match m.I.cfg.I.barrier_flavor with
    | `Hybrid ->
        if
          st.I.st_del_elided && st.I.st_ins_elided
          && st.I.st_del_guards = [] && st.I.st_ins_guards = []
          && not st.I.st_ins_repair
        then fun ~tid:_ ~obj ~pre ~nv:_ ->
          I.barrier_hybrid_both_elided m st ~obj ~pre
        else if
          st.I.st_del_elided
          && (not st.I.st_ins_elided)
          && st.I.st_del_guards = []
        then fun ~tid ~obj ~pre ~nv ->
          I.barrier_hybrid_del_elided m st ~tid ~obj ~pre ~nv
        else if
          st.I.st_ins_elided
          && (not st.I.st_del_elided)
          && st.I.st_ins_guards = []
          && not st.I.st_ins_repair
        then fun ~tid:_ ~obj ~pre ~nv:_ ->
          I.barrier_hybrid_ins_elided m st ~obj ~pre
        else fun ~tid ~obj ~pre ~nv ->
          I.ref_store_barrier_st m st ~tid ~obj ~pre ~nv
    | `Satb ->
        if st.I.st_elided && st.I.st_check = I.No_check then
          if st.I.st_guards = [] then fun ~tid:_ ~obj ~pre ~nv:_ ->
            I.barrier_elided_plain m st ~obj ~pre
          else fun ~tid:_ ~obj ~pre ~nv:_ ->
            I.barrier_elided_guarded m st ~obj ~pre
        else fun ~tid ~obj ~pre ~nv ->
          I.ref_store_barrier_st m st ~tid ~obj ~pre ~nv)

let unspecialized : tid:int -> obj:int -> pre:Value.t -> nv:Value.t -> unit =
 fun ~tid:_ ~obj:_ ~pre:_ ~nv:_ -> assert false

(** Intern the allocation site at [pc] of a method being compiled —
    once, at compile time, so the allocation closures carry a plain int
    and the fast path does no lookup at all (one better than the
    interpreter's per-site cache). *)
let alloc_site_id (c : cmeth) (pc : int) : int =
  Sitemap.intern
    (I.site_id { I.s_class = c.cm_class; s_method = c.cm_meth.mname; s_pc = pc })

let store_cell (c_class : class_name) (mname : method_name) (pc : int)
    (kind : store_kind) : store_cell =
  let site = { I.s_class = c_class; s_method = mname; s_pc = pc } in
  {
    cell_site = site;
    cell_kind = kind;
    cell_id = I.site_id site;
    cell_stamp = -1;
    cell_exec = unspecialized;
  }

(* ---- frames ------------------------------------------------------------ *)

let fresh_frame (cm : cmeth) : eframe =
  {
    ef_home = cm;
    ef_ops = cm.cm_ops;
    ef_fuse = cm.cm_fuse;
    ef_klen = cm.cm_klen;
    ef_pooled = true;
    epc = 0;
    elocals = Array.make cm.cm_max_locals 0;
    estack = Array.make cm.cm_stack_cap 0;
    esp = 0;
  }

let frame_of (cm : cmeth) : eframe =
  let np = cm.cm_npool in
  if np > 0 then begin
    cm.cm_npool <- np - 1;
    let f = cm.cm_pool.(np - 1) in
    Array.fill f.elocals 0 (Array.length f.elocals) 0;
    f.epc <- 0;
    f.esp <- 0;
    f
  end
  else fresh_frame cm

let release (f : eframe) : unit =
  if f.ef_pooled then begin
    let cm = f.ef_home in
    let cap = Array.length cm.cm_pool in
    if cm.cm_npool = cap then begin
      let bigger = Array.make (max 4 (2 * cap)) f in
      Array.blit cm.cm_pool 0 bigger 0 cap;
      cm.cm_pool <- bigger
    end;
    cm.cm_pool.(cm.cm_npool) <- f;
    cm.cm_npool <- cm.cm_npool + 1
  end

(* call: never allocates once warm — the frame comes from the pool and
   the thread's frame stack grows amortized *)
let push_frame (eth : ethread) (nf : eframe) : unit =
  let cap = Array.length eth.eframes in
  if eth.efp = cap then begin
    let bigger = Array.make (max 8 (2 * cap)) nf in
    Array.blit eth.eframes 0 bigger 0 cap;
    eth.eframes <- bigger
  end;
  eth.eframes.(eth.efp) <- nf;
  eth.efp <- eth.efp + 1

(* ---- operand-stack capacity -------------------------------------------- *)

(** Forward dataflow over the bytecode computing the maximum operand
    depth, so call frames allocate exactly the stack they need (the
    interpreter's list-backed stack never needed a bound).  Joins take
    the max; depths are clamped by the code length so even inconsistent
    (unverified) flows terminate. *)
let stack_cap_of (prog : Jir.Program.t) (meth : meth) : int =
  let code = meth.code in
  let len = Array.length code in
  if len = 0 then 2
  else begin
    let effect_of = function
      | Iconst _ | Aconst_null | Iload _ | Aload _ | Getstatic _ | Dup
      | New _ ->
          1
      | Istore _ | Astore _ | Pop | If_i _ | If_null _ | If_nonnull _
      | Putstatic _ | Ibin _ | Aaload | Iaload ->
          -1
      | If_icmp _ | If_acmp _ | Putfield _ -> -2
      | Aastore | Iastore -> -3
      | Iinc _ | Ineg | Arraylength | Newarray _ | Swap | Goto _ | Getfield _
        ->
          0
      | Invoke mr ->
          (* +1 over-approximates: a void callee pushes nothing *)
          1 - List.length (Jir.Program.get_method prog mr).params
      | Spawn mr -> -List.length (Jir.Program.get_method prog mr).params
      | Return | Ireturn | Areturn -> 0
    in
    let depth = Array.make len (-1) in
    let maxd = ref 0 in
    let rec visit pc d =
      if pc >= 0 && pc < len && depth.(pc) < d then begin
        depth.(pc) <- d;
        if d > !maxd then maxd := d;
        let dn = min len (max 0 (d + effect_of code.(pc))) in
        match code.(pc) with
        | Goto l -> visit l dn
        | If_i (_, l)
        | If_icmp (_, l)
        | If_null l
        | If_nonnull l
        | If_acmp (_, l) ->
            visit l dn;
            visit (pc + 1) dn
        | Return | Ireturn | Areturn -> ()
        | _ -> visit (pc + 1) dn
      end
    in
    visit 0 0;
    List.iter (fun (h : int handler) -> visit h.target 0) meth.handlers;
    !maxd + 2
  end

(* ---- compilation: one op per bytecode ---------------------------------- *)

let static_cell (t : t) (r : field_ref) : static_cell =
  let key = (r.fclass, r.fname) in
  match Hashtbl.find_opt t.statics key with
  | Some c -> c
  | None ->
      (* the write-through keeps the interpreter's table current, so the
         value at (lazy) compile time is the live one *)
      let v = Hashtbl.find t.m.I.statics key in
      let c = { sc_key = key; sc_v = v; sc_enc = encode v } in
      Hashtbl.add t.statics key c;
      c

let rec get_cmeth (t : t) (mclass : class_name) (mname : method_name) : cmeth =
  let key = (mclass, mname) in
  match Hashtbl.find_opt t.methods key with
  | Some c -> c
  | None ->
      let meth = Jir.Program.get_method t.m.I.prog { mclass; mname } in
      let c =
        {
          cm_class = mclass;
          cm_meth = meth;
          cm_ops = [||];
          cm_fuse = [||];
          cm_klen = [||];
          cm_nargs = List.length meth.params;
          cm_max_locals = meth.max_locals;
          cm_stack_cap = stack_cap_of t.m.I.prog meth;
          cm_pool = [||];
          cm_npool = 0;
        }
      in
      Hashtbl.add t.methods key c;
      c.cm_ops <- Array.mapi (fun pc ins -> compile_op t c pc ins) meth.code;
      compile_blocks t c;
      c

and compile_op (t : t) (c : cmeth) (pc : int) (ins : int instr) : op =
  let m = t.m in
  let next fr = fr.epc <- fr.epc + 1 in
  match ins with
  | Iconst n ->
      let v = enc_int n in
      fun _ fr ->
        push fr v;
        next fr
  | Aconst_null ->
      fun _ fr ->
        push fr 0;
        next fr
  | Iload i | Aload i ->
      fun _ fr ->
        push fr fr.elocals.(i);
        next fr
  | Istore i | Astore i ->
      fun _ fr ->
        fr.elocals.(i) <- pop fr;
        next fr
  | Iinc (i, d) ->
      let d2 = d lsl 1 in
      fun _ fr ->
        let v = fr.elocals.(i) in
        if v land 1 = 0 then bugf "iinc of %a" Value.pp (decode v);
        fr.elocals.(i) <- v + d2;
        next fr
  | Ibin op ->
      (* encoded arithmetic: add/sub stay in the encoding, mul/div/rem
         go through the raw payload *)
      let f =
        match op with
        | Add -> fun a b -> a + b - 1
        | Sub -> fun a b -> a - b + 1
        | Mul -> fun a b -> enc_int ((a asr 1) * (b asr 1))
        | Div ->
            fun a b ->
              if b = 1 then I.jthrow Arith
              else enc_int ((a asr 1) / (b asr 1))
        | Rem ->
            fun a b ->
              if b = 1 then I.jthrow Arith
              else enc_int ((a asr 1) mod (b asr 1))
      in
      fun _ fr ->
        let b = pop fr in
        let a = pop fr in
        if a land b land 1 = 0 then
          bugf "expected int, got %a" Value.pp
            (decode (if a land 1 = 0 then a else b));
        push fr (f a b);
        next fr
  | Ineg ->
      (* enc (-n) = -(2n+1) + 2 = 2 - enc n *)
      fun _ fr ->
        let v = pop fr in
        if v land 1 = 0 then
          bugf "expected int, got %a" Value.pp (decode v);
        push fr (2 - v);
        next fr
  | Dup ->
      fun _ fr ->
        push fr fr.estack.(fr.esp - 1);
        next fr
  | Pop ->
      fun _ fr ->
        fr.esp <- fr.esp - 1;
        next fr
  | Swap ->
      fun _ fr ->
        let a = pop fr in
        let b = pop fr in
        push fr a;
        push fr b;
        next fr
  | Goto l -> fun _ fr -> fr.epc <- l
  | If_i (cond, l) ->
      fun _ fr ->
        let a = pop_int fr in
        if eval_cond cond a 0 then fr.epc <- l else next fr
  | If_icmp (cond, l) ->
      fun _ fr ->
        let b = pop_int fr in
        let a = pop_int fr in
        if eval_cond cond a b then fr.epc <- l else next fr
  | If_null l ->
      fun _ fr ->
        if pop_ref_or_null fr = 0 then fr.epc <- l else next fr
  | If_nonnull l ->
      fun _ fr ->
        if pop_ref_or_null fr = 0 then next fr else fr.epc <- l
  | If_acmp (want_eq, l) ->
      fun _ fr ->
        let b = pop_ref_or_null fr in
        let a = pop_ref_or_null fr in
        if a = b = want_eq then fr.epc <- l else next fr
  | Getstatic r ->
      let cell = static_cell t r in
      fun _ fr ->
        push fr cell.sc_enc;
        next fr
  | Putstatic r ->
      let cell = static_cell t r in
      if Jir.Types.equal_ty (Jir.Program.static_ty m.I.prog r) R then begin
        let b = store_cell c.cm_class c.cm_meth.mname pc Static_store in
        fun eth fr ->
          let ev = pop fr in
          let v = decode ev in
          if b.cell_stamp <> m.I.barrier_epoch then specialize m b;
          b.cell_exec ~tid:eth.ith.I.tid ~obj:(-1) ~pre:cell.sc_v ~nv:v;
          cell.sc_v <- v;
          cell.sc_enc <- ev;
          Hashtbl.replace m.I.statics cell.sc_key v;
          next fr
      end
      else
        fun _ fr ->
          let ev = pop fr in
          cell.sc_v <- decode ev;
          cell.sc_enc <- ev;
          Hashtbl.replace m.I.statics cell.sc_key cell.sc_v;
          next fr
  | Getfield r ->
      let idx = Jir.Program.field_index m.I.prog r in
      fun _ fr ->
        let o = pop_obj m fr in
        push fr (encode (fields_of o).(idx));
        next fr
  | Putfield r ->
      let idx = Jir.Program.field_index m.I.prog r in
      if Jir.Types.equal_ty (Jir.Program.field_ty m.I.prog r) R then begin
        let b = store_cell c.cm_class c.cm_meth.mname pc Field_store in
        fun eth fr ->
          let v = decode (pop fr) in
          let o = pop_obj m fr in
          let fs = fields_of o in
          if b.cell_stamp <> m.I.barrier_epoch then specialize m b;
          b.cell_exec ~tid:eth.ith.I.tid ~obj:o.Heap.id ~pre:fs.(idx) ~nv:v;
          fs.(idx) <- v;
          next fr
      end
      else
        fun _ fr ->
          let v = decode (pop fr) in
          let o = pop_obj m fr in
          (fields_of o).(idx) <- v;
          next fr
  | New cn ->
      let cls = Jir.Program.get_class m.I.prog cn in
      let n_fields = List.length cls.fields in
      let units = 2 + n_fields in
      let heap = m.I.heap in
      (* the interned id matches what [Interp.alloc_site] would produce
         at this pc, so census rows are engine-independent *)
      let site = alloc_site_id c pc in
      let mk () = Heap.alloc_object ~site heap cn ~n_fields in
      fun _ fr ->
        let o = I.allocate m ~units mk in
        push fr (enc_ref o.Heap.id);
        next fr
  | Newarray (Elem_ref cn) ->
      let heap = m.I.heap in
      let site = alloc_site_id c pc in
      fun _ fr ->
        let len = pop_int fr in
        if len < 0 then I.jthrow Bounds;
        let o =
          I.allocate m ~units:(2 + len) (fun () ->
              Heap.alloc_ref_array ~site heap cn ~len)
        in
        push fr (enc_ref o.Heap.id);
        next fr
  | Newarray Elem_int ->
      let heap = m.I.heap in
      let site = alloc_site_id c pc in
      fun _ fr ->
        let len = pop_int fr in
        if len < 0 then I.jthrow Bounds;
        let o =
          I.allocate m ~units:(2 + len) (fun () ->
              Heap.alloc_int_array ~site heap ~len)
        in
        push fr (enc_ref o.Heap.id);
        next fr
  | Aaload ->
      fun _ fr ->
        let i = pop_int fr in
        let o = pop_obj m fr in
        let es = ref_elems_of o in
        if i < 0 || i >= Array.length es then I.jthrow Bounds;
        push fr (encode es.(i));
        next fr
  | Aastore ->
      let b = store_cell c.cm_class c.cm_meth.mname pc Array_store in
      fun eth fr ->
        let v = decode (pop fr) in
        let i = pop_int fr in
        let o = pop_obj m fr in
        let es = ref_elems_of o in
        if i < 0 || i >= Array.length es then I.jthrow Bounds;
        if b.cell_stamp <> m.I.barrier_epoch then specialize m b;
        b.cell_exec ~tid:eth.ith.I.tid ~obj:o.Heap.id ~pre:es.(i) ~nv:v;
        es.(i) <- v;
        next fr
  | Iaload ->
      fun _ fr ->
        let i = pop_int fr in
        let o = pop_obj m fr in
        let es = int_elems_of o in
        if i < 0 || i >= Array.length es then I.jthrow Bounds;
        push fr (enc_int es.(i));
        next fr
  | Iastore ->
      fun _ fr ->
        let v = pop_int fr in
        let i = pop_int fr in
        let o = pop_obj m fr in
        let es = int_elems_of o in
        if i < 0 || i >= Array.length es then I.jthrow Bounds;
        es.(i) <- v;
        next fr
  | Arraylength ->
      fun _ fr ->
        let o = pop_obj m fr in
        let len =
          match o.Heap.payload with
          | Heap.Ref_array es -> Array.length es
          | Heap.Int_array es -> Array.length es
          | Heap.Fields _ -> bugf "arraylength of non-array"
        in
        push fr (enc_int len);
        next fr
  | Invoke mr ->
      (* links against the memoized record; its arrays are read at call
         time, so recursion (the record's ops still being filled here)
         resolves correctly *)
      let callee = get_cmeth t mr.mclass mr.mname in
      let nargs = callee.cm_nargs in
      fun eth fr ->
        let nf = frame_of callee in
        for k = nargs - 1 downto 0 do
          nf.elocals.(k) <- pop fr
        done;
        (* fr.epc stays at the call site until the callee returns, so
           exception handler ranges cover the invoke *)
        push_frame eth nf
  | Spawn mr ->
      (* eager get_cmeth so create-time prewarm compiles spawn targets *)
      let callee = get_cmeth t mr.mclass mr.mname in
      let nargs = callee.cm_nargs in
      fun _ fr ->
        let args = Array.make nargs Value.Null in
        for k = nargs - 1 downto 0 do
          args.(k) <- decode (pop fr)
        done;
        let th = I.spawn_thread m mr (Array.to_list args) in
        ignore (adopt t th);
        next fr
  | Return ->
      fun eth _ ->
        let fp = eth.efp - 1 in
        release eth.eframes.(fp);
        eth.efp <- fp;
        if fp = 0 then eth.ith.I.finished <- true
        else begin
          let caller = eth.eframes.(fp - 1) in
          caller.epc <- caller.epc + 1
        end
  | Ireturn | Areturn ->
      fun eth fr ->
        let v = pop fr in
        let fp = eth.efp - 1 in
        release eth.eframes.(fp);
        eth.efp <- fp;
        if fp = 0 then eth.ith.I.finished <- true
        else begin
          let caller = eth.eframes.(fp - 1) in
          push caller v;
          caller.epc <- caller.epc + 1
        end

(* ---- compilation: fused basic blocks ------------------------------------

   A small expression compiler over the stack code.  A {e producer} is a
   closure computing one operand value directly (no operand-stack
   traffic), built by maximal munch over leaf pushes (const, local,
   static read) and value-producing consumers (arithmetic, array loads,
   field loads, arraylength).  Producers carry their {e shape} — known
   constant, local slot, static cell, or opaque closure — so consumers
   specialize: [iload 0; iconst 1; iadd] compiles to one closure doing a
   local read and an add, not a chain of three indirect calls, and
   constant subexpressions fold at compile time.

   A {e statement} is a producer-fed sink (branch, local store, heap or
   static store, return, invoke), a folded run of [iinc]s, a [goto], or
   — when no sink matches — a plain push of the parsed producers, so
   blocks keep going through argument setup.  A fused opcode covers a
   run of statements ending at the block's terminator.  Calls fuse too:
   an [invoke] sink writes producer-fed arguments straight into the
   callee's (pooled) frame, and [return]s recycle the frame and resume
   the caller, so a small method body costs one dispatch per call.

   Exception parity: any sub-instruction that can raise a program
   exception sets [fr.epc] to its own pc first, so handler-range
   matching in [unwind] and the slice's executed-instruction accounting
   ([fr.epc - start + 1]) behave exactly as if the run had executed one
   op at a time.  Producers run in push order and dereferences happen at
   the consumer, matching the interpreter's effect order on verified
   code; pure operands (constants, locals, static cells — nothing in a
   producer chain ever writes) may evaluate out of order, which is
   unobservable. *)

and compile_blocks (t : t) (c : cmeth) : unit =
  let m = t.m in
  let code = c.cm_meth.code in
  let len = Array.length code in
  let fuse = Array.copy c.cm_ops in
  let klen = Array.make len 1 in
  (* encoded -> raw int payload *)
  let as_int v =
    if v land 1 = 1 then v asr 1
    else bugf "expected int, got %a" Value.pp (decode v)
  in
  let module P = struct
    (* integer producers yield RAW machine ints *)
    type iprod =
      | IP_const of int
      | IP_local of int
      | IP_fun of (ethread -> eframe -> int)

    (* value producers yield ENCODED values (see {!encode}) *)
    type vprod =
      | VP_null
      | VP_local of int
      | VP_static of static_cell
      | VP_fun of (ethread -> eframe -> int)

    (* all shapes but IP_fun/VP_fun are pure register/cell reads *)
    type prod = P_int of iprod | P_val of vprod
  end in
  let open P in
  let ifun = function
    | IP_const n -> fun _ _ -> n
    | IP_local i -> fun _ fr -> as_int fr.elocals.(i)
    | IP_fun f -> f
  in
  let vfun = function
    | VP_null -> fun _ _ -> 0
    | VP_local i -> fun _ fr -> fr.elocals.(i)
    | VP_static cell -> fun _ _ -> cell.sc_enc
    | VP_fun f -> f
  in
  let iprod_of = function
    | P_int ip -> ip
    | P_val (VP_local i) -> IP_local i
    | P_val (VP_static cell) -> IP_fun (fun _ _ -> as_int cell.sc_enc)
    | P_val VP_null -> IP_fun (fun _ _ -> as_int 0)
    | P_val (VP_fun f) -> IP_fun (fun eth fr -> as_int (f eth fr))
  in
  let vprod_of = function
    | P_val vp -> vp
    | P_int (IP_const n) ->
        let v = enc_int n in
        VP_fun (fun _ _ -> v)
    | P_int (IP_local i) ->
        (* int-typed locals are stored encoded already *)
        VP_local i
    | P_int (IP_fun f) -> VP_fun (fun eth fr -> enc_int (f eth fr))
  in
  let cmp_of : cond -> int -> int -> bool = function
    | Eq -> fun a b -> a = b
    | Ne -> fun a b -> a <> b
    | Lt -> fun a b -> a < b
    | Ge -> fun a b -> a >= b
    | Gt -> fun a b -> a > b
    | Le -> fun a b -> a <= b
  in
  (* evaluate a reference producer and dereference it at pc [at] *)
  let obj_of at vp : ethread -> eframe -> Heap.obj =
    match vp with
    | VP_local i ->
        fun _ fr ->
          let v = fr.elocals.(i) in
          fr.epc <- at;
          deref m fr v
    | VP_static cell ->
        fun _ fr ->
          fr.epc <- at;
          deref m fr cell.sc_enc
    | VP_null ->
        fun _ fr ->
          fr.epc <- at;
          I.jthrow Null_deref
    | VP_fun f ->
        fun eth fr ->
          let v = f eth fr in
          fr.epc <- at;
          deref m fr v
  in
  let ibin_op (op : ibin) ipa ipb q2 : iprod =
    match op with
    | Add | Sub | Mul -> (
        match (ipa, ipb) with
        | IP_const a, IP_const b ->
            IP_const
              (match op with
              | Add -> a + b
              | Sub -> a - b
              | Mul -> a * b
              | Div | Rem -> assert false)
        | IP_local i, IP_const b -> (
            match op with
            | Add -> IP_fun (fun _ fr -> as_int fr.elocals.(i) + b)
            | Sub -> IP_fun (fun _ fr -> as_int fr.elocals.(i) - b)
            | Mul -> IP_fun (fun _ fr -> as_int fr.elocals.(i) * b)
            | Div | Rem -> assert false)
        | IP_local i, IP_local j -> (
            match op with
            | Add ->
                IP_fun
                  (fun _ fr -> as_int fr.elocals.(i) + as_int fr.elocals.(j))
            | Sub ->
                IP_fun
                  (fun _ fr -> as_int fr.elocals.(i) - as_int fr.elocals.(j))
            | Mul ->
                IP_fun
                  (fun _ fr -> as_int fr.elocals.(i) * as_int fr.elocals.(j))
            | Div | Rem -> assert false)
        | IP_fun f, IP_const b -> (
            match op with
            | Add -> IP_fun (fun eth fr -> f eth fr + b)
            | Sub -> IP_fun (fun eth fr -> f eth fr - b)
            | Mul -> IP_fun (fun eth fr -> f eth fr * b)
            | Div | Rem -> assert false)
        | ipa, ipb ->
            let fa = ifun ipa and fb = ifun ipb in
            let g =
              match op with
              | Add -> ( + )
              | Sub -> ( - )
              | Mul -> ( * )
              | Div | Rem -> assert false
            in
            IP_fun
              (fun eth fr ->
                let a = fa eth fr in
                let b = fb eth fr in
                g a b))
    | Div | Rem -> (
        match ipb with
        | IP_const b when b <> 0 ->
            (* divisor known nonzero: no trap, no pc stamp *)
            let fa = ifun ipa in
            if op = Div then IP_fun (fun eth fr -> fa eth fr / b)
            else IP_fun (fun eth fr -> fa eth fr mod b)
        | _ ->
            let fa = ifun ipa and fb = ifun ipb in
            if op = Div then
              IP_fun
                (fun eth fr ->
                  let a = fa eth fr in
                  let b = fb eth fr in
                  fr.epc <- q2;
                  if b = 0 then I.jthrow Arith else a / b)
            else
              IP_fun
                (fun eth fr ->
                  let a = fa eth fr in
                  let b = fb eth fr in
                  fr.epc <- q2;
                  if b = 0 then I.jthrow Arith else a mod b))
  in
  let getfield_prod vp idx at : vprod =
    match vp with
    | VP_local i ->
        VP_fun
          (fun _ fr ->
            let v = fr.elocals.(i) in
            fr.epc <- at;
            encode (fields_of (deref m fr v)).(idx))
    | vp ->
        let fo = obj_of at vp in
        VP_fun (fun eth fr -> encode (fields_of (fo eth fr)).(idx))
  in
  let aaload_elems at v fr =
    fr.epc <- at;
    ref_elems_of (deref m fr v)
  in
  let iaload_elems at v fr =
    fr.epc <- at;
    int_elems_of (deref m fr v)
  in
  let aaload_prod vp ip at : vprod =
    match (vp, ip) with
    | VP_static cell, IP_local i ->
        VP_fun
          (fun _ fr ->
            let i = as_int fr.elocals.(i) in
            let es = aaload_elems at cell.sc_enc fr in
            if i < 0 || i >= Array.length es then I.jthrow Bounds;
            encode es.(i))
    | VP_local l, IP_local i ->
        VP_fun
          (fun _ fr ->
            let v = fr.elocals.(l) in
            let i = as_int fr.elocals.(i) in
            let es = aaload_elems at v fr in
            if i < 0 || i >= Array.length es then I.jthrow Bounds;
            encode es.(i))
    | vp, ip ->
        let fv = vfun vp and fi = ifun ip in
        VP_fun
          (fun eth fr ->
            let v = fv eth fr in
            let i = fi eth fr in
            let es = aaload_elems at v fr in
            if i < 0 || i >= Array.length es then I.jthrow Bounds;
            encode es.(i))
  in
  let iaload_prod vp ip at : iprod =
    match (vp, ip) with
    | VP_local l, IP_local i ->
        IP_fun
          (fun _ fr ->
            let v = fr.elocals.(l) in
            let i = as_int fr.elocals.(i) in
            let es = iaload_elems at v fr in
            if i < 0 || i >= Array.length es then I.jthrow Bounds;
            es.(i))
    | vp, ip ->
        let fv = vfun vp and fi = ifun ip in
        IP_fun
          (fun eth fr ->
            let v = fv eth fr in
            let i = fi eth fr in
            let es = iaload_elems at v fr in
            if i < 0 || i >= Array.length es then I.jthrow Bounds;
            es.(i))
  in
  let leaf q : (prod * int) option =
    if q >= len then None
    else
      match code.(q) with
      | Iconst n -> Some (P_int (IP_const n), q + 1)
      | Aconst_null -> Some (P_val VP_null, q + 1)
      | Iload i | Aload i -> Some (P_val (VP_local i), q + 1)
      | Getstatic r -> Some (P_val (VP_static (static_cell t r)), q + 1)
      | _ -> None
  in
  (* maximal munch: parse one producer starting at [q], folding in any
     value-producing consumers that follow; backtracking is free because
     parsing is pure compile-time work *)
  let rec prod q : (prod * int) option =
    match leaf q with None -> None | Some (p0, q1) -> extend p0 q1
  and extend p0 q : (prod * int) option =
    if q >= len then Some (p0, q)
    else
      match code.(q) with
      | Ineg ->
          extend
            (P_int
               (match iprod_of p0 with
               | IP_const n -> IP_const (-n)
               | IP_local i -> IP_fun (fun _ fr -> -as_int fr.elocals.(i))
               | IP_fun f -> IP_fun (fun eth fr -> -f eth fr)))
            (q + 1)
      | Arraylength ->
          let fo = obj_of q (vprod_of p0) in
          extend
            (P_int
               (IP_fun
                  (fun eth fr ->
                    match (fo eth fr).Heap.payload with
                    | Heap.Ref_array es -> Array.length es
                    | Heap.Int_array es -> Array.length es
                    | Heap.Fields _ -> bugf "arraylength of non-array")))
            (q + 1)
      | Getfield r ->
          let idx = Jir.Program.field_index m.I.prog r in
          extend (P_val (getfield_prod (vprod_of p0) idx q)) (q + 1)
      | _ -> (
          (* binary value-producing consumers take a second operand *)
          match prod q with
          | None -> Some (p0, q)
          | Some (p1, q2) ->
              if q2 >= len then Some (p0, q)
              else (
                match code.(q2) with
                | Ibin op ->
                    extend
                      (P_int (ibin_op op (iprod_of p0) (iprod_of p1) q2))
                      (q2 + 1)
                | Aaload ->
                    extend
                      (P_val (aaload_prod (vprod_of p0) (iprod_of p1) q2))
                      (q2 + 1)
                | Iaload ->
                    extend
                      (P_int (iaload_prod (vprod_of p0) (iprod_of p1) q2))
                      (q2 + 1)
                | _ -> Some (p0, q)))
  in
  (* ---- statements: (run, next_pc, terminal).  Terminal statements
     set [epc] themselves (absolute target, fallthrough, or call/return
     bookkeeping); non-terminal ones leave it to the block epilogue. *)
  let store_local i p0 : op =
    match p0 with
    | P_val (VP_local j) | P_int (IP_local j) ->
        fun _ fr -> fr.elocals.(i) <- fr.elocals.(j)
    | P_val (VP_static cell) -> fun _ fr -> fr.elocals.(i) <- cell.sc_enc
    | P_val VP_null -> fun _ fr -> fr.elocals.(i) <- 0
    | P_val (VP_fun f) -> fun eth fr -> fr.elocals.(i) <- f eth fr
    | P_int (IP_const n) ->
        let v = enc_int n in
        fun _ fr -> fr.elocals.(i) <- v
    | P_int (IP_fun f) ->
        fun eth fr -> fr.elocals.(i) <- enc_int (f eth fr)
  in
  let if_i_stmt cond ipa l fall : op =
    let cmp = cmp_of cond in
    match ipa with
    | IP_const a ->
        let tgt = if cmp a 0 then l else fall in
        fun _ fr -> fr.epc <- tgt
    | IP_local i ->
        fun _ fr ->
          fr.epc <- (if cmp (as_int fr.elocals.(i)) 0 then l else fall)
    | IP_fun f ->
        fun eth fr -> fr.epc <- (if cmp (f eth fr) 0 then l else fall)
  in
  let if_icmp_stmt cond ipa ipb l fall : op =
    let cmp = cmp_of cond in
    match (ipa, ipb) with
    | IP_local i, IP_const b ->
        fun _ fr ->
          fr.epc <- (if cmp (as_int fr.elocals.(i)) b then l else fall)
    | IP_local i, IP_local j ->
        fun _ fr ->
          fr.epc <-
            (if cmp (as_int fr.elocals.(i)) (as_int fr.elocals.(j)) then l
             else fall)
    | IP_fun f, IP_const b ->
        fun eth fr -> fr.epc <- (if cmp (f eth fr) b then l else fall)
    | IP_fun f, IP_local j ->
        fun eth fr ->
          (* the local read is pure; evaluation order is unobservable *)
          let a = f eth fr in
          fr.epc <- (if cmp a (as_int fr.elocals.(j)) then l else fall)
    | IP_local i, IP_fun f ->
        fun eth fr ->
          let b = f eth fr in
          fr.epc <- (if cmp (as_int fr.elocals.(i)) b then l else fall)
    | ipa, ipb ->
        let fa = ifun ipa and fb = ifun ipb in
        fun eth fr ->
          let a = fa eth fr in
          let b = fb eth fr in
          fr.epc <- (if cmp a b then l else fall)
  in
  let if_null_stmt want_null vp l fall : op =
    let tnull = if want_null then l else fall in
    let tnon = if want_null then fall else l in
    match vp with
    | VP_local i ->
        fun _ fr ->
          fr.epc <- (if fr.elocals.(i) = 0 then tnull else tnon)
    | vp ->
        let fv = vfun vp in
        fun eth fr ->
          fr.epc <- (if fv eth fr = 0 then tnull else tnon)
  in
  let return_stmt : op =
   fun eth _ ->
    let fp = eth.efp - 1 in
    release eth.eframes.(fp);
    eth.efp <- fp;
    if fp = 0 then eth.ith.I.finished <- true
    else begin
      let caller = eth.eframes.(fp - 1) in
      caller.epc <- caller.epc + 1
    end
  in
  let vreturn_stmt (fv : ethread -> eframe -> int) : op =
   fun eth fr ->
    let v = fv eth fr in
    let fp = eth.efp - 1 in
    release eth.eframes.(fp);
    eth.efp <- fp;
    if fp = 0 then eth.ith.I.finished <- true
    else begin
      let caller = eth.eframes.(fp - 1) in
      push caller v;
      caller.epc <- caller.epc + 1
    end
  in
  (* a fused call: spill any surplus producers to the stack (they are
     operands of something after the call), evaluate the last [nargs]
     producers straight into the callee's locals, pop whatever the
     producers did not cover from the operand stack, and push the
     callee's frame.  [fr.epc] parks at the call site so handler ranges
     cover the invoke and the caller resumes at the next pc. *)
  let invoke_stmt (callee : cmeth) ps q_inv : op =
    let nargs = callee.cm_nargs in
    let nps = List.length ps in
    let npush = max 0 (nps - nargs) in
    let pushes =
      Array.of_list
        (List.filteri (fun i _ -> i < npush) ps
        |> List.map (fun p -> vfun (vprod_of p)))
    in
    let argfs =
      Array.of_list
        (List.filteri (fun i _ -> i >= npush) ps
        |> List.map (fun p -> vfun (vprod_of p)))
    in
    let na = Array.length argfs in
    let npop = nargs - na in
    if Array.length pushes = 0 then
      fun eth fr ->
        let nf = frame_of callee in
        for i = 0 to na - 1 do
          nf.elocals.(npop + i) <- argfs.(i) eth fr
        done;
        for k = npop - 1 downto 0 do
          nf.elocals.(k) <- pop fr
        done;
        fr.epc <- q_inv;
        push_frame eth nf
    else
      fun eth fr ->
        for i = 0 to Array.length pushes - 1 do
          push fr (pushes.(i) eth fr)
        done;
        let nf = frame_of callee in
        for i = 0 to na - 1 do
          nf.elocals.(npop + i) <- argfs.(i) eth fr
        done;
        for k = npop - 1 downto 0 do
          nf.elocals.(k) <- pop fr
        done;
        fr.epc <- q_inv;
        push_frame eth nf
  in
  let push_stmt ps q' : (op * int * bool) option =
    match List.map (fun p -> vfun (vprod_of p)) ps with
    | [ fa ] -> Some ((fun eth fr -> push fr (fa eth fr)), q', false)
    | [ fa; fb ] ->
        Some
          ( (fun eth fr ->
              push fr (fa eth fr);
              push fr (fb eth fr)),
            q',
            false )
    | [ fa; fb; fv ] ->
        Some
          ( (fun eth fr ->
              push fr (fa eth fr);
              push fr (fb eth fr);
              push fr (fv eth fr)),
            q',
            false )
    | _ -> None
  in
  let parse_stmt q : (op * int * bool) option =
    if q >= len then None
    else
      match code.(q) with
      | Iinc (i, d) ->
          (* fold a run of same-local iincs (workloads use these as
             padding) into one add; intermediate values are unobservable
             inside a slice *)
          let q' = ref (q + 1) in
          let total = ref d in
          let scanning = ref true in
          while !scanning && !q' < len do
            match code.(!q') with
            | Iinc (i', d') when i' = i ->
                total := !total + d';
                incr q'
            | _ -> scanning := false
          done;
          let total2 = !total lsl 1 in
          Some
            ( (fun _ fr ->
                let v = fr.elocals.(i) in
                if v land 1 = 0 then bugf "iinc of %a" Value.pp (decode v);
                fr.elocals.(i) <- v + total2),
              !q',
              false )
      | Goto l -> Some ((fun _ fr -> fr.epc <- l), q + 1, true)
      | Return -> Some (return_stmt, q + 1, true)
      | Ireturn | Areturn ->
          (* return value from the operand stack (pushed by an earlier
             statement or before the block) *)
          Some (vreturn_stmt (fun _ fr -> pop fr), q + 1, true)
      | Invoke mr ->
          let callee = get_cmeth t mr.mclass mr.mname in
          Some (invoke_stmt callee [] q, q + 1, true)
      | _ -> (
          match prod q with
          | None -> None
          | Some (pa, q1) -> (
              if q1 >= len then push_stmt [ pa ] q1
              else
                match code.(q1) with
                (* ---- arity-1 sinks ---- *)
                | If_i (cond, l) ->
                    Some (if_i_stmt cond (iprod_of pa) l (q1 + 1), q1 + 1, true)
                | If_null l ->
                    Some
                      ( if_null_stmt true (vprod_of pa) l (q1 + 1),
                        q1 + 1,
                        true )
                | If_nonnull l ->
                    Some
                      ( if_null_stmt false (vprod_of pa) l (q1 + 1),
                        q1 + 1,
                        true )
                | Istore i | Astore i -> Some (store_local i pa, q1 + 1, false)
                | Ireturn | Areturn ->
                    Some (vreturn_stmt (vfun (vprod_of pa)), q1 + 1, true)
                | Invoke mr ->
                    let callee = get_cmeth t mr.mclass mr.mname in
                    Some (invoke_stmt callee [ pa ] q1, q1 + 1, true)
                | Putstatic r ->
                    let cell = static_cell t r in
                    let fa = vfun (vprod_of pa) in
                    if
                      Jir.Types.equal_ty (Jir.Program.static_ty m.I.prog r) R
                    then
                      let b =
                        store_cell c.cm_class c.cm_meth.mname q1 Static_store
                      in
                      Some
                        ( (fun eth fr ->
                            let ev = fa eth fr in
                            let v = decode ev in
                            t.fuse_ep <- q1;
                            if b.cell_stamp <> m.I.barrier_epoch then
                              specialize m b;
                            b.cell_exec ~tid:eth.ith.I.tid ~obj:(-1)
                              ~pre:cell.sc_v ~nv:v;
                            cell.sc_v <- v;
                            cell.sc_enc <- ev;
                            Hashtbl.replace m.I.statics cell.sc_key v),
                          q1 + 1,
                          false )
                    else
                      Some
                        ( (fun eth fr ->
                            let ev = fa eth fr in
                            cell.sc_v <- decode ev;
                            cell.sc_enc <- ev;
                            Hashtbl.replace m.I.statics cell.sc_key
                              cell.sc_v),
                          q1 + 1,
                          false )
                (* ---- arity-2 sinks ---- *)
                | _ -> (
                    match prod q1 with
                    | None -> push_stmt [ pa ] q1
                    | Some (pb, q2) -> (
                        if q2 >= len then push_stmt [ pa; pb ] q2
                        else
                          match code.(q2) with
                          | If_icmp (cond, l) ->
                              Some
                                ( if_icmp_stmt cond (iprod_of pa)
                                    (iprod_of pb) l (q2 + 1),
                                  q2 + 1,
                                  true )
                          | If_acmp (want_eq, l) ->
                              let fa = vfun (vprod_of pa)
                              and fb = vfun (vprod_of pb) in
                              let fall = q2 + 1 in
                              Some
                                ( (fun eth fr ->
                                    let a = fa eth fr in
                                    let b = fb eth fr in
                                    fr.epc <-
                                      (if a = b = want_eq then l else fall)),
                                  q2 + 1,
                                  true )
                          | Invoke mr ->
                              let callee = get_cmeth t mr.mclass mr.mname in
                              Some
                                ( invoke_stmt callee [ pa; pb ] q2,
                                  q2 + 1,
                                  true )
                          | Putfield r ->
                              let idx = Jir.Program.field_index m.I.prog r in
                              let vo = vprod_of pa in
                              let fv = vfun (vprod_of pb) in
                              let is_ref =
                                Jir.Types.equal_ty
                                  (Jir.Program.field_ty m.I.prog r)
                                  R
                              in
                              let run =
                                if is_ref then
                                  let b =
                                    store_cell c.cm_class c.cm_meth.mname q2
                                      Field_store
                                  in
                                  match vo with
                                  | VP_local i ->
                                      fun eth fr ->
                                        let v = decode (fv eth fr) in
                                        fr.epc <- q2;
                                        t.fuse_ep <- q2;
                                        let o =
                                          deref m fr fr.elocals.(i)
                                        in
                                        let fs = fields_of o in
                                        if b.cell_stamp <> m.I.barrier_epoch
                                        then specialize m b;
                                        b.cell_exec ~tid:eth.ith.I.tid
                                          ~obj:o.Heap.id ~pre:fs.(idx) ~nv:v;
                                        fs.(idx) <- v
                                  | vo ->
                                      let fo = vfun vo in
                                      fun eth fr ->
                                        let ov = fo eth fr in
                                        let v = decode (fv eth fr) in
                                        fr.epc <- q2;
                                        t.fuse_ep <- q2;
                                        let o = deref m fr ov in
                                        let fs = fields_of o in
                                        if b.cell_stamp <> m.I.barrier_epoch
                                        then specialize m b;
                                        b.cell_exec ~tid:eth.ith.I.tid
                                          ~obj:o.Heap.id ~pre:fs.(idx) ~nv:v;
                                        fs.(idx) <- v
                                else
                                  match vo with
                                  | VP_local i ->
                                      fun eth fr ->
                                        let v = decode (fv eth fr) in
                                        fr.epc <- q2;
                                        let o =
                                          deref m fr fr.elocals.(i)
                                        in
                                        (fields_of o).(idx) <- v
                                  | vo ->
                                      let fo = vfun vo in
                                      fun eth fr ->
                                        let ov = fo eth fr in
                                        let v = decode (fv eth fr) in
                                        fr.epc <- q2;
                                        (fields_of (deref m fr ov)).(idx) <-
                                          v
                              in
                              Some (run, q2 + 1, false)
                          (* ---- arity-3 sinks ---- *)
                          | _ -> (
                              match prod q2 with
                              | None -> push_stmt [ pa; pb ] q2
                              | Some (pv, q3) -> (
                                  if q3 >= len then
                                    push_stmt [ pa; pb; pv ] q3
                                  else
                                    match code.(q3) with
                                    | Invoke mr ->
                                        let callee =
                                          get_cmeth t mr.mclass mr.mname
                                        in
                                        Some
                                          ( invoke_stmt callee [ pa; pb; pv ]
                                              q3,
                                            q3 + 1,
                                            true )
                                    | Aastore ->
                                        let fa = vfun (vprod_of pa)
                                        and fi = ifun (iprod_of pb)
                                        and fv = vfun (vprod_of pv) in
                                        let b =
                                          store_cell c.cm_class
                                            c.cm_meth.mname q3 Array_store
                                        in
                                        Some
                                          ( (fun eth fr ->
                                              let va = fa eth fr in
                                              let i = fi eth fr in
                                              let v = decode (fv eth fr) in
                                              fr.epc <- q3;
                                              t.fuse_ep <- q3;
                                              let o = deref m fr va in
                                              let es = ref_elems_of o in
                                              if
                                                i < 0
                                                || i >= Array.length es
                                              then I.jthrow Bounds;
                                              if
                                                b.cell_stamp
                                                <> m.I.barrier_epoch
                                              then specialize m b;
                                              b.cell_exec ~tid:eth.ith.I.tid
                                                ~obj:o.Heap.id ~pre:es.(i)
                                                ~nv:v;
                                              es.(i) <- v),
                                            q3 + 1,
                                            false )
                                    | Iastore ->
                                        let fa = vfun (vprod_of pa)
                                        and fi = ifun (iprod_of pb)
                                        and fv = ifun (iprod_of pv) in
                                        Some
                                          ( (fun eth fr ->
                                              let va = fa eth fr in
                                              let i = fi eth fr in
                                              let v = fv eth fr in
                                              fr.epc <- q3;
                                              let es =
                                                int_elems_of (deref m fr va)
                                              in
                                              if
                                                i < 0
                                                || i >= Array.length es
                                              then I.jthrow Bounds;
                                              es.(i) <- v),
                                            q3 + 1,
                                            false )
                                    | _ -> push_stmt [ pa; pb; pv ] q3))))))
  in
  let block_at p : (op * int) option =
    let stmts = ref [] in
    let q = ref p in
    let terminal = ref false in
    let stop = ref false in
    while not !stop do
      match parse_stmt !q with
      | None -> stop := true
      | Some (run, q', term) ->
          stmts := run :: !stmts;
          q := q';
          if term then begin
            terminal := true;
            stop := true
          end
    done;
    let k = !q - p in
    if k < 2 then None
    else
      let all = Array.of_list (List.rev !stmts) in
      let nst = Array.length all in
      let body, tail =
        if !terminal then (Array.sub all 0 (nst - 1), all.(nst - 1))
        else
          let e = p + k in
          (all, fun _ fr -> fr.epc <- e)
      in
      let run =
        match body with
        | [||] -> tail
        | [| s0 |] ->
            fun eth fr ->
              s0 eth fr;
              tail eth fr
        | [| s0; s1 |] ->
            fun eth fr ->
              s0 eth fr;
              s1 eth fr;
              tail eth fr
        | [| s0; s1; s2 |] ->
            fun eth fr ->
              s0 eth fr;
              s1 eth fr;
              s2 eth fr;
              tail eth fr
        | ss ->
            let n = Array.length ss in
            fun eth fr ->
              for i = 0 to n - 1 do
                ss.(i) eth fr
              done;
              tail eth fr
      in
      Some (run, k)
  in
  (* block leader pcs: method entry, branch targets, fallthroughs of
     branches/returns/calls, handler targets, and resumption points
     after unfusable ops — plus anywhere not already covered by a
     block *)
  let leaders = Array.make (max len 1) false in
  if len > 0 then leaders.(0) <- true;
  let mark pc = if pc >= 0 && pc < len then leaders.(pc) <- true in
  Array.iteri
    (fun pc ins ->
      match ins with
      | Goto l -> mark l
      | If_i (_, l)
      | If_icmp (_, l)
      | If_null l
      | If_nonnull l
      | If_acmp (_, l) ->
          mark l;
          mark (pc + 1)
      | Return | Ireturn | Areturn | Invoke _ | Spawn _ | New _ | Newarray _
      | Dup | Pop | Swap ->
          mark (pc + 1)
      | _ -> ())
    code;
  List.iter (fun (h : int handler) -> mark h.target) c.cm_meth.handlers;
  let cover = ref 0 in
  for p = 0 to len - 1 do
    if p >= !cover || leaders.(p) then begin
      (match block_at p with
      | Some (op, k) ->
          fuse.(p) <- op;
          klen.(p) <- k;
          if p + k > !cover then cover := p + k
      | None -> ());
      if p >= !cover then cover := p + 1
    end
  done;
  c.cm_fuse <- fuse;
  c.cm_klen <- klen

(* ---- threads ----------------------------------------------------------- *)

(** Mirror an interpreter thread into the engine.  Locals copy into the
    encoded representation (the interpreter built them at spawn and
    never touches them again); the operand stack — empty for freshly
    spawned threads — converts from the top-first list to the bottom-up
    array. *)
and adopt (t : t) (ith : I.thread) : ethread =
  (* interpreter frame lists are top-first; the engine stack is
     bottom-at-0 *)
  let eframes =
    List.rev_map
      (fun (fr : I.frame) ->
        let cm = get_cmeth t fr.I.f_class fr.I.f_meth.mname in
        let n = List.length fr.I.ostack in
        let estack = Array.make (max cm.cm_stack_cap (n + 2)) 0 in
        List.iteri (fun i v -> estack.(n - 1 - i) <- encode v) fr.I.ostack;
        {
          ef_home = cm;
          ef_ops = cm.cm_ops;
          ef_fuse = cm.cm_fuse;
          ef_klen = cm.cm_klen;
          ef_pooled = false;
          epc = fr.I.pc;
          elocals = Array.map encode fr.I.locals;
          estack;
          esp = n;
        })
      ith.I.frames
    |> Array.of_list
  in
  let eth = { ith; eframes; efp = Array.length eframes } in
  Hashtbl.replace t.threads ith.I.tid eth;
  eth

let ethread_of (t : t) (ith : I.thread) : ethread =
  match t.last with
  | Some eth when eth.ith == ith -> eth
  | _ ->
      let eth =
        match Hashtbl.find_opt t.threads ith.I.tid with
        | Some eth -> eth
        | None -> adopt t ith
      in
      t.last <- Some eth;
      eth

(** Root enumeration in the interpreter's exact visit order; threads the
    engine has not adopted yet (chaos late spawns before their first
    slice) are adopted here, which preserves values and order. *)
let stack_roots (t : t) : (int * int list) list =
  List.map
    (fun (ith : I.thread) ->
      let eth = ethread_of t ith in
      let acc = ref [] in
      let add v =
        (* even and nonzero = encoded Ref *)
        if v land 1 = 0 && v <> 0 then acc := ((v asr 1) - 1) :: !acc
      in
      (* frames top first, as the interpreter visits them *)
      for fi = eth.efp - 1 downto 0 do
        let fr = eth.eframes.(fi) in
        Array.iter add fr.elocals;
        for i = fr.esp - 1 downto 0 do
          add fr.estack.(i)
        done
      done;
      (ith.I.tid, !acc))
    t.m.I.threads

(* ---- unwinding --------------------------------------------------------- *)

(** Mirror of [Interp.unwind] over engine frames: find a matching
    handler walking frames top-down (caller pcs rest at their call
    sites), clear the operand stack on entry; no handler kills the
    thread with the exception kind as its error.  Frames dropped on the
    way down are recycled. *)
let unwind (eth : ethread) (kind : exn_kind) : unit =
  let matches (h : int handler) =
    match h.kind, kind with
    | Any, _ -> true
    | Bounds, Bounds | Null_deref, Null_deref | Arith, Arith -> true
    | (Bounds | Null_deref | Arith), _ -> false
  in
  let rec go fp =
    if fp < 0 then begin
      eth.efp <- 0;
      eth.ith.I.finished <- true;
      eth.ith.I.error <- Some (string_of_exn_kind kind)
    end
    else begin
      let fr = eth.eframes.(fp) in
      let candidate =
        List.find_opt
          (fun h -> fr.epc >= h.from_pc && fr.epc < h.to_pc && matches h)
          fr.ef_home.cm_meth.handlers
      in
      match candidate with
      | Some h ->
          fr.esp <- 0;
          fr.epc <- h.target;
          eth.efp <- fp + 1
      | None ->
          release fr;
          go (fp - 1)
    end
  in
  go (eth.efp - 1)

(* ---- driving ----------------------------------------------------------- *)

let create (m : I.t) : t =
  let t =
    {
      m;
      methods = Hashtbl.create 64;
      threads = Hashtbl.create 8;
      statics = Hashtbl.create 64;
      last = None;
      slice_n = ref 0;
      fuse_start = -1;
      fuse_ep = -1;
    }
  in
  m.I.stack_roots_override <- Some (fun () -> stack_roots t);
  (* prewarm: adopting the already-spawned threads compiles their entry
     methods, and compilation links callees (and spawn targets) eagerly,
     so the whole reachable call graph is compiled before the first
     slice runs *)
  List.iter (fun th -> ignore (ethread_of t th)) m.I.threads;
  t

let compiled_methods (t : t) : int = Hashtbl.length t.methods
(* Outside a fused block, [slice_n] already includes the running
   instruction (single-steps pre-charge).  Inside one, the block's k
   instructions are charged only on completion, but the recording
   sub-ops publish their pc in [fuse_ep] first, so the consumed prefix
   — store included, the interpreter's charge-before-execute accounting
   — is recoverable exactly. *)
let inflight (t : t) : int =
  let base = !(t.slice_n) in
  if t.fuse_start >= 0 && t.fuse_ep >= t.fuse_start then
    base + (t.fuse_ep - t.fuse_start + 1)
  else base

(** Run up to [fuel] instructions.  Counters are batched: instead of the
    interpreter's per-instruction [instr_count]/[cost_units] updates and
    budget check, the slice pre-clamps its fuel against the remaining
    budget and flushes both counters once per slice (and before any
    propagating exception) — safepoints, telemetry and the budget
    diagnostic all see identical values.  The one mid-slice reader is
    the flight recorder's step source, which adds the in-flight count
    ({!inflight}): single-stepped instructions are charged to [slice_n]
    before they run (the interpreter's accounting); fused blocks are
    charged on completion, but their recording sub-ops (the ref stores)
    publish the block's consumed prefix first, so recorded steps match
    the interpreter's exactly everywhere.

    Fused opcodes run only while they fit in the remaining fuel; the
    tail of a slice single-steps, which keeps safepoint-time operand
    stacks identical to the interpreter's. *)
let slice (t : t) (ith : I.thread) ~(fuel : int) : int =
  let m = t.m in
  let eth = ethread_of t ith in
  let max_steps = m.I.cfg.I.max_steps in
  let budget_left = max_steps - m.I.instr_count in
  let efuel = if fuel <= budget_left then fuel else max 0 budget_left in
  let n = t.slice_n in
  n := 0;
  let executed = ref 0 in
  let flush () =
    m.I.instr_count <- m.I.instr_count + !n;
    m.I.cost_units <- m.I.cost_units + (!n * Barrier_cost.bytecode_units);
    executed := !executed + !n;
    n := 0
  in
  while !n < efuel && not ith.I.finished do
    if eth.efp = 0 then ith.I.finished <- true
    else begin
      let fr = eth.eframes.(eth.efp - 1) in
      let p = fr.epc in
      if p < 0 || p >= Array.length fr.ef_ops then begin
        incr n;
        flush ();
        bugf "pc out of range in %s.%s" fr.ef_home.cm_class
          fr.ef_home.cm_meth.mname
      end;
      let k = fr.ef_klen.(p) in
      if k > 1 && !n + k <= efuel then (
        t.fuse_start <- p;
        t.fuse_ep <- -1;
        try
          fr.ef_fuse.(p) eth fr;
          t.fuse_start <- -1;
          n := !n + k
        with
        | I.Jexn kind ->
            (* risky sub-instructions stamp [fr.epc], so the executed
               prefix (faulting instruction included) is recoverable *)
            t.fuse_start <- -1;
            n := !n + (fr.epc - p + 1);
            unwind eth kind
        | e ->
            t.fuse_start <- -1;
            n := !n + (fr.epc - p + 1);
            flush ();
            raise e)
      else (
        (* charged before executing, like the interpreter: an abort
           (e.g. a pacer hard stop) includes it, and anything the
           instruction records sees its own step *)
        incr n;
        try fr.ef_ops.(p) eth fr with
        | I.Jexn kind -> unwind eth kind
        | e ->
            flush ();
            raise e)
    end
  done;
  flush ();
  (* budget exhausted mid-slice: the interpreter raises when the next
     instruction is attempted, charging it first *)
  if
    !executed = efuel && efuel < fuel && (not ith.I.finished)
    && eth.efp > 0
  then begin
    m.I.instr_count <- m.I.instr_count + 1;
    m.I.cost_units <- m.I.cost_units + Barrier_cost.bytecode_units;
    bugf "instruction budget exceeded (%d)" max_steps
  end;
  !executed

