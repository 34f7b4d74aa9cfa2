(** Direct-threaded execution engine for verified jir methods.

    Each method compiles into arrays of OCaml closures ("ops"), one per
    bytecode, with everything resolvable at compile time preresolved:
    field offsets, static slots, callee code, branch targets, allocation
    shapes.  On top of the one-op-per-instruction array sits a {e fused}
    array: a small expression compiler runs maximal munch over each
    basic block and collapses producer chains into their consumers — so
    [getstatic; iload; aaload; astore] becomes one closure that reads
    the static slot, indexes the array and writes the local, with no
    operand-stack traffic and a single dispatch.  A fused opcode may
    cover several such statements, up to the block's terminating branch.

    {b Compile once, bind per run.}  Compiled {e code} is machine-free
    and shared: one code per distinct program content
    ({!Jir.Program.program}), found through a weak cache (see
    [code_for]) and built lazily by the first {!create} for that
    content.  Everything a run mutates lives in its {e binding} ({!t}):
    the machine, the adopted threads, one cell per store site (its
    cached {!Interp.site_stats}), one slot per static and the frame
    pools.  Code refers to that state by index only, and closures reach
    it through their [ethread] argument, so two live machines of one
    program share nothing mutable and a finished run leaves nothing
    behind in the code.  A binding costs O(store sites + statics) to
    build.

    A reference store calls the interpreter's one barrier body
    ({!Interp.store_barrier}) with its site's record, which the run's
    cell caches once the site first executes — the interpreter's
    materialization order, so a site born revoked records the same
    event at the same step.  Revocation and degraded mode change what
    the record says, never which code runs.

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

    Ints are 62-bit on both engines ({!Jir.Types.wrap}): encoded arithmetic
    wraps by construction, and a fused block, which computes in raw
    machine ints, wraps one where it leaves unencoded — compared,
    divided, used as an index or stored into an int array.

    Deviations from the interpreter, by design and only observable from
    {e unverified} code (the verifier rules all of them out): operand
    stack underflow surfaces as an array-bounds error rather than
    [Runtime_bug], type-confusion errors inside a fused opcode surface
    in operand-evaluation order rather than pop order, and method/static
    resolution happens at method-compile time rather than first
    execution. *)

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

(* {!Jir.Types.wrap}, defined again here so fused code inlines it: dune's
   dev profile compiles with [-opaque], which keeps a call to the shared
   function out of line, and fused code wraps at every comparison,
   division operand, index and int-array store.  Through the call, the
   bench/perf compute workload read 2517 against 2726 req/s and mutator
   3082 against 3237 (medians of 10 alternating 4 s pairs, 2-vCPU Xeon). *)
let[@inline] wrap n = (n lsl 1) asr 1

(* ---- compiled code ----------------------------------------------------- *)

(* a growable array: the code's site, static and method tables, which
   grow while methods compile; [items] beyond [len] are filler *)
type 'a vec = { mutable items : 'a array; mutable len : int }

let vec_push (v : 'a vec) (x : 'a) : int =
  if v.len = Array.length v.items then begin
    let bigger = Array.make (max 8 (2 * v.len)) x in
    Array.blit v.items 0 bigger 0 v.len;
    v.items <- bigger
  end;
  v.items.(v.len) <- x;
  v.len <- v.len + 1;
  v.len - 1

(** A reference-store site of the code, described once at compile time. *)
type site_desc = { sd_site : site; sd_kind : store_kind }

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
  run : t;  (** the binding this thread runs in *)
  heap : Heap.t;  (** [run.m.heap], one load nearer the dereferences *)
  mutable eframes : eframe array;
      (** frame stack, bottom at index 0; slots at [efp] and above are
          stale (calls and returns never allocate, they bump [efp]) *)
  mutable efp : int;  (** live frame count; top of stack = [efp - 1] *)
}

and op = ethread -> eframe -> unit

and cmeth = {
  cm_index : int;  (** position in the code's method table *)
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
}

(** Machine-free compiled code, shared by every run of one program
    content.  Store sites and statics are numbered in compile order;
    ops refer to a run's cells and slots by those numbers. *)
and code = {
  methods : (class_name * method_name, cmeth) Hashtbl.t;
  sites : site_desc vec;
  statics : (class_name * field_name) vec;
  static_index : (class_name * field_name, int) Hashtbl.t;
  mutable broken : bool;
      (** a compile raised half-way (unverified input): the cache builds
          fresh code for the next run instead *)
}

(** One run's binding of the code. *)
and t = {
  m : I.t;
  code : code;
  mutable cells : I.site_stats option array;
      (** by store-site number; [None] until the site first executes *)
  mutable static_vals : Value.t array;
      (** by static number.  Reads hit the slot; writes go through to the
          interpreter's statics table as well, so root enumeration,
          traces and the differential oracle see identical statics at
          all times (every key exists from machine creation, so
          [Hashtbl.replace] mutates in place and iteration order never
          changes). *)
  mutable static_encs : int array;  (** [encode] of each slot, in lockstep *)
  mutable pools : eframe array array;
      (** recycled frames by method number (a stack, [npool] live):
          calls reuse locals/stack arrays instead of allocating —
          invisible to the heap model, since roots only ever walk the
          live [eframes] prefixes *)
  mutable npool : int array;
  mutable threads : ethread option array;  (** by tid *)
  mutable slice_n : int;
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

let deref (eth : ethread) fr (v : int) : Heap.obj =
  if v land 1 = 1 then bugf "expected ref, got int"
  else if v = 0 then I.jthrow Null_deref
  else begin
    (* inlined Heap.get: encoded refs come only from the allocator, so
       id >= 0 and id < next_id hold by construction; the array read
       keeps its own bounds check as the backstop *)
    let id = (v asr 1) - 1 in
    let o = eth.heap.Heap.objects.(id) in
    if o.Heap.dead then
      bugf "use-after-free of #%d (%s) at %s.%s@%d" id o.Heap.cls
        fr.ef_home.cm_class fr.ef_home.cm_meth.mname fr.epc;
    o
  end

let pop_obj eth fr = deref eth fr (pop fr)

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

(* ---- store sites ------------------------------------------------------ *)

(** The run's record for store site [s], materialized at the site's
    first execution, as the interpreter does. *)
let site_of (r : t) (s : int) : I.site_stats =
  match r.cells.(s) with
  | Some st -> st
  | None ->
      let d = r.code.sites.items.(s) in
      let st = I.site_stats r.m d.sd_site d.sd_kind in
      r.cells.(s) <- Some st;
      st

(** Intern the allocation site at [pc] of a method being compiled —
    once, at compile time, so the allocation closures carry a plain int
    and the fast path does no lookup at all (one better than the
    interpreter's per-site cache). *)
let alloc_site_id (c : cmeth) (pc : int) : int =
  Sitemap.intern
    (string_of_site
       { s_class = c.cm_class; s_method = c.cm_meth.mname; s_pc = pc })

(** Number a new reference-store site of the code. *)
let store_site (k : code) (c : cmeth) (pc : int) (kind : store_kind) : int =
  vec_push k.sites
    {
      sd_site = { s_class = c.cm_class; s_method = c.cm_meth.mname; s_pc = pc };
      sd_kind = kind;
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

let frame_of (r : t) (cm : cmeth) : eframe =
  let i = cm.cm_index in
  let np = r.npool.(i) in
  if np > 0 then begin
    r.npool.(i) <- np - 1;
    let f = r.pools.(i).(np - 1) in
    Array.fill f.elocals 0 (Array.length f.elocals) 0;
    f.epc <- 0;
    f.esp <- 0;
    f
  end
  else fresh_frame cm

let release (r : t) (f : eframe) : unit =
  if f.ef_pooled then begin
    let i = f.ef_home.cm_index in
    let np = r.npool.(i) in
    let cap = Array.length r.pools.(i) in
    if np = cap then begin
      let bigger = Array.make (max 4 (2 * cap)) f in
      Array.blit r.pools.(i) 0 bigger 0 cap;
      r.pools.(i) <- bigger
    end;
    r.pools.(i).(np) <- f;
    r.npool.(i) <- np + 1
  end

(* call: never allocates once warm — the frame comes from the pool and
   the thread's frame stack grows amortized.  A call past
   [Interp.max_call_depth] kills the thread, as the interpreter's does. *)
let push_frame (eth : ethread) (nf : eframe) : unit =
  if eth.efp >= I.max_call_depth then begin
    release eth.run nf;
    for fp = eth.efp - 1 downto 0 do
      release eth.run eth.eframes.(fp)
    done;
    eth.efp <- 0;
    eth.ith.I.finished <- true;
    eth.ith.I.error <- Some "stack overflow"
  end
  else begin
    let cap = Array.length eth.eframes in
    if eth.efp = cap then begin
      let bigger = Array.make (max 8 (2 * cap)) nf in
      Array.blit eth.eframes 0 bigger 0 cap;
      eth.eframes <- bigger
    end;
    eth.eframes.(eth.efp) <- nf;
    eth.efp <- eth.efp + 1
  end

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

(** The code's number for static [r], assigned on first reference. *)
let static_slot (k : code) (r : field_ref) : int =
  let key = (r.fclass, r.fname) in
  match Hashtbl.find_opt k.static_index key with
  | Some i -> i
  | None ->
      let i = vec_push k.statics key in
      Hashtbl.add k.static_index key i;
      i

(* a static write: the run's slot, then the interpreter's table *)
let set_static (r : t) (i : int) (v : Value.t) (ev : int) : unit =
  r.static_vals.(i) <- v;
  r.static_encs.(i) <- ev;
  Hashtbl.replace r.m.I.statics r.code.statics.items.(i) v

let rec get_cmeth (k : code) (prog : Jir.Program.t) (mclass : class_name)
    (mname : method_name) : cmeth =
  let key = (mclass, mname) in
  match Hashtbl.find_opt k.methods key with
  | Some c -> c
  | None ->
      let meth = Jir.Program.get_method prog { mclass; mname } in
      let c =
        {
          cm_index = Hashtbl.length k.methods;
          cm_class = mclass;
          cm_meth = meth;
          cm_ops = [||];
          cm_fuse = [||];
          cm_klen = [||];
          cm_nargs = List.length meth.params;
          cm_max_locals = meth.max_locals;
          cm_stack_cap = stack_cap_of prog meth;
        }
      in
      Hashtbl.add k.methods key c;
      c.cm_ops <- Array.mapi (fun pc ins -> compile_op k prog c pc ins) meth.code;
      compile_blocks k prog c;
      c

and compile_op (k : code) (prog : Jir.Program.t) (c : cmeth) (pc : int)
    (ins : int instr) : op =
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
      let i = static_slot k r in
      fun eth fr ->
        push fr eth.run.static_encs.(i);
        next fr
  | Putstatic r ->
      let i = static_slot k r in
      if Jir.Types.equal_ty (Jir.Program.static_ty prog r) R then begin
        let s = store_site k c pc Static_store in
        fun eth fr ->
          let ev = pop fr in
          let v = decode ev in
          let run = eth.run in
          I.store_barrier run.m (site_of run s) ~tid:eth.ith.I.tid ~obj:(-1)
            ~pre:run.static_vals.(i) ~nv:v;
          set_static run i v ev;
          next fr
      end
      else
        fun eth fr ->
          let ev = pop fr in
          set_static eth.run i (decode ev) ev;
          next fr
  | Getfield r ->
      let idx = Jir.Program.field_index prog r in
      fun eth fr ->
        let o = pop_obj eth fr in
        push fr (encode (fields_of o).(idx));
        next fr
  | Putfield r ->
      let idx = Jir.Program.field_index prog r in
      if Jir.Types.equal_ty (Jir.Program.field_ty prog r) R then begin
        let s = store_site k c pc Field_store in
        fun eth fr ->
          let v = decode (pop fr) in
          let o = pop_obj eth fr in
          let fs = fields_of o in
          I.store_barrier eth.run.m (site_of eth.run s) ~tid:eth.ith.I.tid
            ~obj:o.Heap.id ~pre:fs.(idx) ~nv:v;
          fs.(idx) <- v;
          next fr
      end
      else
        fun eth fr ->
          let v = decode (pop fr) in
          let o = pop_obj eth fr in
          (fields_of o).(idx) <- v;
          next fr
  | New cn ->
      let cls = Jir.Program.get_class prog cn in
      let n_fields = List.length cls.fields in
      let units = 2 + n_fields in
      (* the interned id matches what [Interp.alloc_site] would produce
         at this pc, so census rows are engine-independent *)
      let site = alloc_site_id c pc in
      fun eth fr ->
        (* {!Interp.allocate}'s admission and notification, without its
           thunk *)
        let m = eth.run.m in
        I.admit m ~units;
        let o = Heap.alloc_object ~site eth.heap cn ~n_fields in
        m.I.gc.Gc_hooks.on_alloc o;
        push fr (enc_ref o.Heap.id);
        next fr
  | Newarray (Elem_ref cn) ->
      let site = alloc_site_id c pc in
      fun eth fr ->
        let len = pop_int fr in
        if len < 0 || len > I.max_array_length then I.jthrow Bounds;
        let m = eth.run.m in
        I.admit m ~units:(2 + len);
        let o = Heap.alloc_ref_array ~site eth.heap cn ~len in
        m.I.gc.Gc_hooks.on_alloc o;
        push fr (enc_ref o.Heap.id);
        next fr
  | Newarray Elem_int ->
      let site = alloc_site_id c pc in
      fun eth fr ->
        let len = pop_int fr in
        if len < 0 || len > I.max_array_length then I.jthrow Bounds;
        let m = eth.run.m in
        I.admit m ~units:(2 + len);
        let o = Heap.alloc_int_array ~site eth.heap ~len in
        m.I.gc.Gc_hooks.on_alloc o;
        push fr (enc_ref o.Heap.id);
        next fr
  | Aaload ->
      fun eth fr ->
        let i = pop_int fr in
        let o = pop_obj eth fr in
        let es = ref_elems_of o in
        if i < 0 || i >= Array.length es then I.jthrow Bounds;
        push fr (encode es.(i));
        next fr
  | Aastore ->
      let s = store_site k c pc Array_store in
      fun eth fr ->
        let v = decode (pop fr) in
        let i = pop_int fr in
        let o = pop_obj eth fr in
        let es = ref_elems_of o in
        if i < 0 || i >= Array.length es then I.jthrow Bounds;
        I.store_barrier eth.run.m (site_of eth.run s) ~tid:eth.ith.I.tid
          ~obj:o.Heap.id ~pre:es.(i) ~nv:v;
        es.(i) <- v;
        next fr
  | Iaload ->
      fun eth fr ->
        let i = pop_int fr in
        let o = pop_obj eth fr in
        let es = int_elems_of o in
        if i < 0 || i >= Array.length es then I.jthrow Bounds;
        push fr (enc_int es.(i));
        next fr
  | Iastore ->
      fun eth fr ->
        let v = pop_int fr in
        let i = pop_int fr in
        let o = pop_obj eth fr in
        let es = int_elems_of o in
        if i < 0 || i >= Array.length es then I.jthrow Bounds;
        es.(i) <- v;
        next fr
  | Arraylength ->
      fun eth fr ->
        let o = pop_obj eth fr in
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
      let callee = get_cmeth k prog mr.mclass mr.mname in
      let nargs = callee.cm_nargs in
      fun eth fr ->
        let nf = frame_of eth.run callee in
        for j = nargs - 1 downto 0 do
          nf.elocals.(j) <- pop fr
        done;
        (* fr.epc stays at the call site until the callee returns, so
           exception handler ranges cover the invoke *)
        push_frame eth nf
  | Spawn mr ->
      (* eager get_cmeth so the first create compiles spawn targets too *)
      let callee = get_cmeth k prog mr.mclass mr.mname in
      let nargs = callee.cm_nargs in
      fun eth fr ->
        let args = Array.make nargs Value.Null in
        for j = nargs - 1 downto 0 do
          args.(j) <- decode (pop fr)
        done;
        let th = I.spawn_thread eth.run.m mr (Array.to_list args) in
        ignore (adopt eth.run th);
        next fr
  | Return ->
      fun eth _ ->
        let fp = eth.efp - 1 in
        release eth.run eth.eframes.(fp);
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
        release eth.run eth.eframes.(fp);
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
   constant, local slot, static slot, or opaque closure — so consumers
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
   code; pure operands (constants, locals, static slots — nothing in a
   producer chain ever writes) may evaluate out of order, which is
   unobservable. *)

and compile_blocks (k : code) (prog : Jir.Program.t) (c : cmeth) : unit =
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
    (* integer producers yield RAW machine ints, which may run past
       62 bits; one that leaves unencoded — compared, divided, used as
       an index or stored into an int array — is wrapped there.
       Constants fold wrapped and locals decode wrapped, so a
       comparison wraps only a computed operand. *)
    type iprod =
      | IP_const of int
      | IP_local of int
      | IP_fun of (ethread -> eframe -> int)

    (* value producers yield ENCODED values (see {!encode}) *)
    type vprod =
      | VP_null
      | VP_local of int
      | VP_static of int  (** static slot *)
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
    | VP_static i -> fun eth _ -> eth.run.static_encs.(i)
    | VP_fun f -> f
  in
  let iprod_of = function
    | P_int ip -> ip
    | P_val (VP_local i) -> IP_local i
    | P_val (VP_static i) ->
        IP_fun (fun eth _ -> as_int eth.run.static_encs.(i))
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
        fun eth fr ->
          let v = fr.elocals.(i) in
          fr.epc <- at;
          deref eth fr v
    | VP_static i ->
        fun eth fr ->
          fr.epc <- at;
          deref eth fr eth.run.static_encs.(i)
    | VP_null ->
        fun _ fr ->
          fr.epc <- at;
          I.jthrow Null_deref
    | VP_fun f ->
        fun eth fr ->
          let v = f eth fr in
          fr.epc <- at;
          deref eth fr v
  in
  let ibin_op (op : ibin) ipa ipb q2 : iprod =
    match op with
    | Add | Sub | Mul -> (
        match (ipa, ipb) with
        | IP_const a, IP_const b ->
            IP_const
              (wrap
                 (match op with
                 | Add -> a + b
                 | Sub -> a - b
                 | Mul -> a * b
                 | Div | Rem -> assert false))
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
            if op = Div then IP_fun (fun eth fr -> wrap (fa eth fr) / b)
            else IP_fun (fun eth fr -> wrap (fa eth fr) mod b)
        | _ ->
            let fa = ifun ipa and fb = ifun ipb in
            if op = Div then
              IP_fun
                (fun eth fr ->
                  let a = wrap (fa eth fr) in
                  let b = wrap (fb eth fr) in
                  fr.epc <- q2;
                  if b = 0 then I.jthrow Arith else a / b)
            else
              IP_fun
                (fun eth fr ->
                  let a = wrap (fa eth fr) in
                  let b = wrap (fb eth fr) in
                  fr.epc <- q2;
                  if b = 0 then I.jthrow Arith else a mod b))
  in
  let getfield_prod vp idx at : vprod =
    match vp with
    | VP_local i ->
        VP_fun
          (fun eth fr ->
            let v = fr.elocals.(i) in
            fr.epc <- at;
            encode (fields_of (deref eth fr v)).(idx))
    | vp ->
        let fo = obj_of at vp in
        VP_fun (fun eth fr -> encode (fields_of (fo eth fr)).(idx))
  in
  let aaload_elems at eth v fr =
    fr.epc <- at;
    ref_elems_of (deref eth fr v)
  in
  let iaload_elems at eth v fr =
    fr.epc <- at;
    int_elems_of (deref eth fr v)
  in
  let aaload_prod vp ip at : vprod =
    match (vp, ip) with
    | VP_static s, IP_local i ->
        VP_fun
          (fun eth fr ->
            let i = as_int fr.elocals.(i) in
            let es = aaload_elems at eth eth.run.static_encs.(s) fr in
            if i < 0 || i >= Array.length es then I.jthrow Bounds;
            encode es.(i))
    | VP_local l, IP_local i ->
        VP_fun
          (fun eth fr ->
            let v = fr.elocals.(l) in
            let i = as_int fr.elocals.(i) in
            let es = aaload_elems at eth v fr in
            if i < 0 || i >= Array.length es then I.jthrow Bounds;
            encode es.(i))
    | vp, ip ->
        let fv = vfun vp and fi = ifun ip in
        VP_fun
          (fun eth fr ->
            let v = fv eth fr in
            let i = wrap (fi eth fr) in
            let es = aaload_elems at eth v fr in
            if i < 0 || i >= Array.length es then I.jthrow Bounds;
            encode es.(i))
  in
  let iaload_prod vp ip at : iprod =
    match (vp, ip) with
    | VP_local l, IP_local i ->
        IP_fun
          (fun eth fr ->
            let v = fr.elocals.(l) in
            let i = as_int fr.elocals.(i) in
            let es = iaload_elems at eth v fr in
            if i < 0 || i >= Array.length es then I.jthrow Bounds;
            es.(i))
    | vp, ip ->
        let fv = vfun vp and fi = ifun ip in
        IP_fun
          (fun eth fr ->
            let v = fv eth fr in
            let i = wrap (fi eth fr) in
            let es = iaload_elems at eth v fr in
            if i < 0 || i >= Array.length es then I.jthrow Bounds;
            es.(i))
  in
  let leaf q : (prod * int) option =
    if q >= len then None
    else
      match code.(q) with
      | Iconst n -> Some (P_int (IP_const (wrap n)), q + 1)
      | Aconst_null -> Some (P_val VP_null, q + 1)
      | Iload i | Aload i -> Some (P_val (VP_local i), q + 1)
      | Getstatic r -> Some (P_val (VP_static (static_slot k r)), q + 1)
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
               | IP_const n -> IP_const (wrap (-n))
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
          let idx = Jir.Program.field_index prog r in
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
    | P_val (VP_static s) ->
        fun eth fr -> fr.elocals.(i) <- eth.run.static_encs.(s)
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
        fun eth fr ->
          fr.epc <- (if cmp (wrap (f eth fr)) 0 then l else fall)
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
        fun eth fr ->
          fr.epc <- (if cmp (wrap (f eth fr)) b then l else fall)
    | IP_fun f, IP_local j ->
        fun eth fr ->
          (* the local read is pure; evaluation order is unobservable *)
          let a = wrap (f eth fr) in
          fr.epc <- (if cmp a (as_int fr.elocals.(j)) then l else fall)
    | IP_local i, IP_fun f ->
        fun eth fr ->
          let b = wrap (f eth fr) in
          fr.epc <- (if cmp (as_int fr.elocals.(i)) b then l else fall)
    | ipa, ipb ->
        let fa = ifun ipa and fb = ifun ipb in
        fun eth fr ->
          let a = wrap (fa eth fr) in
          let b = wrap (fb eth fr) in
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
    release eth.run eth.eframes.(fp);
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
    release eth.run eth.eframes.(fp);
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
        let nf = frame_of eth.run callee in
        for i = 0 to na - 1 do
          nf.elocals.(npop + i) <- argfs.(i) eth fr
        done;
        for j = npop - 1 downto 0 do
          nf.elocals.(j) <- pop fr
        done;
        fr.epc <- q_inv;
        push_frame eth nf
    else
      fun eth fr ->
        for i = 0 to Array.length pushes - 1 do
          push fr (pushes.(i) eth fr)
        done;
        let nf = frame_of eth.run callee in
        for i = 0 to na - 1 do
          nf.elocals.(npop + i) <- argfs.(i) eth fr
        done;
        for j = npop - 1 downto 0 do
          nf.elocals.(j) <- pop fr
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
          let callee = get_cmeth k prog mr.mclass mr.mname in
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
                    let callee = get_cmeth k prog mr.mclass mr.mname in
                    Some (invoke_stmt callee [ pa ] q1, q1 + 1, true)
                | Putstatic r ->
                    let i = static_slot k r in
                    let fa = vfun (vprod_of pa) in
                    if Jir.Types.equal_ty (Jir.Program.static_ty prog r) R
                    then
                      let s = store_site k c q1 Static_store in
                      Some
                        ( (fun eth fr ->
                            let ev = fa eth fr in
                            let v = decode ev in
                            let run = eth.run in
                            run.fuse_ep <- q1;
                            I.store_barrier run.m (site_of run s)
                              ~tid:eth.ith.I.tid ~obj:(-1)
                              ~pre:run.static_vals.(i) ~nv:v;
                            set_static run i v ev),
                          q1 + 1,
                          false )
                    else
                      Some
                        ( (fun eth fr ->
                            let ev = fa eth fr in
                            set_static eth.run i (decode ev) ev),
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
                              let callee = get_cmeth k prog mr.mclass mr.mname in
                              Some
                                ( invoke_stmt callee [ pa; pb ] q2,
                                  q2 + 1,
                                  true )
                          | Putfield r ->
                              let idx = Jir.Program.field_index prog r in
                              let vo = vprod_of pa in
                              let fv = vfun (vprod_of pb) in
                              let is_ref =
                                Jir.Types.equal_ty
                                  (Jir.Program.field_ty prog r)
                                  R
                              in
                              let run =
                                if is_ref then
                                  let s = store_site k c q2 Field_store in
                                  match vo with
                                  | VP_local i ->
                                      fun eth fr ->
                                        let v = decode (fv eth fr) in
                                        fr.epc <- q2;
                                        let run = eth.run in
                                        run.fuse_ep <- q2;
                                        let o = deref eth fr fr.elocals.(i) in
                                        let fs = fields_of o in
                                        I.store_barrier run.m (site_of run s)
                                          ~tid:eth.ith.I.tid ~obj:o.Heap.id
                                          ~pre:fs.(idx) ~nv:v;
                                        fs.(idx) <- v
                                  | vo ->
                                      let fo = vfun vo in
                                      fun eth fr ->
                                        let ov = fo eth fr in
                                        let v = decode (fv eth fr) in
                                        fr.epc <- q2;
                                        let run = eth.run in
                                        run.fuse_ep <- q2;
                                        let o = deref eth fr ov in
                                        let fs = fields_of o in
                                        I.store_barrier run.m (site_of run s)
                                          ~tid:eth.ith.I.tid ~obj:o.Heap.id
                                          ~pre:fs.(idx) ~nv:v;
                                        fs.(idx) <- v
                                else
                                  match vo with
                                  | VP_local i ->
                                      fun eth fr ->
                                        let v = decode (fv eth fr) in
                                        fr.epc <- q2;
                                        let o = deref eth fr fr.elocals.(i) in
                                        (fields_of o).(idx) <- v
                                  | vo ->
                                      let fo = vfun vo in
                                      fun eth fr ->
                                        let ov = fo eth fr in
                                        let v = decode (fv eth fr) in
                                        fr.epc <- q2;
                                        (fields_of (deref eth fr ov)).(idx) <-
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
                                          get_cmeth k prog mr.mclass mr.mname
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
                                        let s =
                                          store_site k c q3 Array_store
                                        in
                                        Some
                                          ( (fun eth fr ->
                                              let va = fa eth fr in
                                              let i = wrap (fi eth fr) in
                                              let v = decode (fv eth fr) in
                                              fr.epc <- q3;
                                              let run = eth.run in
                                              run.fuse_ep <- q3;
                                              let o = deref eth fr va in
                                              let es = ref_elems_of o in
                                              if
                                                i < 0
                                                || i >= Array.length es
                                              then I.jthrow Bounds;
                                              I.store_barrier run.m
                                                (site_of run s)
                                                ~tid:eth.ith.I.tid
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
                                              let i = wrap (fi eth fr) in
                                              let v = wrap (fv eth fr) in
                                              fr.epc <- q3;
                                              let es =
                                                int_elems_of (deref eth fr va)
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
  let prog = t.m.I.prog in
  (* interpreter frame lists are top-first; the engine stack is
     bottom-at-0 *)
  let eframes =
    try
      List.rev_map
        (fun (fr : I.frame) ->
          let cm = get_cmeth t.code prog fr.I.f_class fr.I.f_meth.mname in
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
    with e ->
      (* a half-compiled method must not reach the next run *)
      t.code.broken <- true;
      raise e
  in
  sync t;
  let eth =
    { ith; run = t; heap = t.m.I.heap; eframes; efp = Array.length eframes }
  in
  let tid = ith.I.tid in
  if tid >= Array.length t.threads then begin
    let bigger = Array.make (max 4 (2 * tid)) None in
    Array.blit t.threads 0 bigger 0 (Array.length t.threads);
    t.threads <- bigger
  end;
  t.threads.(tid) <- Some eth;
  eth

(** Extend the binding over whatever the code compiled since it was
    last synced (by this run or another): new store sites start
    unmaterialized, new statics take the machine's live values, new
    methods get empty frame pools. *)
and sync (t : t) : unit =
  let k = t.code in
  let have = Array.length t.cells in
  if have < k.sites.len then
    t.cells <-
      Array.init k.sites.len (fun i -> if i < have then t.cells.(i) else None);
  let have = Array.length t.static_vals in
  if have < k.statics.len then begin
    t.static_vals <-
      Array.init k.statics.len (fun i ->
          if i < have then t.static_vals.(i)
          else Hashtbl.find t.m.I.statics k.statics.items.(i));
    t.static_encs <- Array.map encode t.static_vals
  end;
  let have = Array.length t.npool in
  let n = Hashtbl.length k.methods in
  if have < n then begin
    t.pools <- Array.init n (fun i -> if i < have then t.pools.(i) else [||]);
    t.npool <- Array.init n (fun i -> if i < have then t.npool.(i) else 0)
  end

let ethread_of (t : t) (ith : I.thread) : ethread =
  let tid = ith.I.tid in
  if tid < Array.length t.threads then
    match t.threads.(tid) with Some eth -> eth | None -> adopt t ith
  else adopt t ith

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
          release eth.run fr;
          go (fp - 1)
    end
  in
  go (eth.efp - 1)

(* ---- the code cache ---------------------------------------------------- *)

(* One entry per live program content: its code, held strongly, and
   weak pointers to the programs bound to it.  Nothing else keeps a
   program alive — code holds method records, never a program — so an
   entry whose programs have all been collected is dropped at the next
   miss.  (Ephemerons keyed by program, holding the code as data, cost
   far more peak RSS: the collector marks ephemeron data in a phase of
   its own; DESIGN.md §8 has the measurements.) *)
type entry = {
  ecode : code;
  mutable programs : Jir.Types.program Weak.t;
}

(* by [Hashtbl.hash] of the content *)
let entries : (int, entry list) Hashtbl.t = Hashtbl.create 16

let live_program (e : entry) : Jir.Types.program option =
  let n = Weak.length e.programs in
  let rec go i =
    if i = n then None
    else match Weak.get e.programs i with Some _ as q -> q | None -> go (i + 1)
  in
  go 0

let bound (e : entry) (p : Jir.Types.program) : bool =
  let n = Weak.length e.programs in
  let rec go i =
    i < n
    && ((match Weak.get e.programs i with Some q -> q == p | None -> false)
       || go (i + 1))
  in
  go 0

(* bind [p] to [e], in the slot of a collected program if there is one *)
let bind_program (e : entry) (p : Jir.Types.program) : unit =
  let n = Weak.length e.programs in
  let rec free i =
    if i = n then None else if Weak.check e.programs i then free (i + 1) else Some i
  in
  match free 0 with
  | Some i -> Weak.set e.programs i (Some p)
  | None ->
      let bigger = Weak.create (max 2 (2 * n)) in
      Weak.blit e.programs 0 bigger 0 n;
      Weak.set bigger n (Some p);
      e.programs <- bigger

(* drop the entries whose programs are all gone, and broken ones *)
let sweep () : unit =
  Hashtbl.filter_map_inplace
    (fun _ es ->
      match
        List.filter (fun e -> (not e.ecode.broken) && live_program e <> None) es
      with
      | [] -> None
      | es -> Some es)
    entries

let new_code () : code =
  {
    methods = Hashtbl.create 64;
    sites = { items = [||]; len = 0 };
    statics = { items = [||]; len = 0 };
    static_index = Hashtbl.create 16;
    broken = false;
  }

(** The code for [prog]'s content; empty until a run compiles into it.
    A program already bound is found by a hash and a physical
    comparison; an equal program compiled separately, by one deep
    comparison, after which it is bound too. *)
let code_for (prog : Jir.Program.t) : code =
  let p = Jir.Program.program prog in
  let h = Hashtbl.hash p in
  let bucket () = Option.value (Hashtbl.find_opt entries h) ~default:[] in
  let usable e = not e.ecode.broken in
  match List.find_opt (fun e -> usable e && bound e p) (bucket ()) with
  | Some e -> e.ecode
  | None -> (
      let equal e =
        usable e
        && match live_program e with Some q -> compare q p = 0 | None -> false
      in
      match List.find_opt equal (bucket ()) with
      | Some e ->
          bind_program e p;
          e.ecode
      | None ->
          sweep ();
          let e = { ecode = new_code (); programs = Weak.create 1 } in
          Weak.set e.programs 0 (Some p);
          Hashtbl.replace entries h (e :: bucket ());
          e.ecode)

let cached_programs () : int =
  sweep ();
  Hashtbl.fold
    (fun _ es n ->
      List.fold_left
        (fun n e ->
          let live = ref 0 in
          for i = 0 to Weak.length e.programs - 1 do
            if Weak.check e.programs i then incr live
          done;
          n + !live)
        n es)
    entries 0

(* ---- driving ----------------------------------------------------------- *)

let create (m : I.t) : t =
  let t =
    {
      m;
      code = code_for m.I.prog;
      cells = [||];
      static_vals = [||];
      static_encs = [||];
      pools = [||];
      npool = [||];
      threads = [||];
      slice_n = 0;
      fuse_start = -1;
      fuse_ep = -1;
    }
  in
  m.I.stack_roots_override <- Some (fun () -> stack_roots t);
  (* adopting the already-spawned threads compiles their entry methods
     on the content's first run, and compilation links callees (and
     spawn targets) eagerly, so the whole reachable call graph is
     compiled before the first slice runs; later runs find it compiled
     and only bind *)
  List.iter (fun th -> ignore (ethread_of t th)) m.I.threads;
  sync t;
  t

let code (t : t) : code = t.code
let compiled_methods (t : t) : int = Hashtbl.length t.code.methods

(* Outside a fused block, [slice_n] already includes the running
   instruction (single-steps pre-charge).  Inside one, the block's k
   instructions are charged only on completion, but the recording
   sub-ops publish their pc in [fuse_ep] first, so the consumed prefix
   — store included, the interpreter's charge-before-execute accounting
   — is recoverable exactly. *)
let inflight (t : t) : int =
  let base = t.slice_n in
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
let flush (t : t) : unit =
  let m = t.m in
  m.I.instr_count <- m.I.instr_count + t.slice_n;
  m.I.cost_units <- m.I.cost_units + (t.slice_n * Barrier_cost.bytecode_units);
  t.slice_n <- 0

let slice (t : t) (ith : I.thread) ~(fuel : int) : int =
  let m = t.m in
  let eth = ethread_of t ith in
  let max_steps = m.I.cfg.I.max_steps in
  let start = m.I.instr_count in
  let budget_left = max_steps - start in
  let efuel = if fuel <= budget_left then fuel else max 0 budget_left in
  t.slice_n <- 0;
  while t.slice_n < efuel && not ith.I.finished do
    if eth.efp = 0 then ith.I.finished <- true
    else begin
      let fr = eth.eframes.(eth.efp - 1) in
      let p = fr.epc in
      if p < 0 || p >= Array.length fr.ef_ops then begin
        t.slice_n <- t.slice_n + 1;
        flush t;
        bugf "pc out of range in %s.%s" fr.ef_home.cm_class
          fr.ef_home.cm_meth.mname
      end;
      let k = fr.ef_klen.(p) in
      if k > 1 && t.slice_n + k <= efuel then (
        t.fuse_start <- p;
        t.fuse_ep <- -1;
        try
          fr.ef_fuse.(p) eth fr;
          t.fuse_start <- -1;
          t.slice_n <- t.slice_n + k
        with
        | I.Jexn kind ->
            (* risky sub-instructions stamp [fr.epc], so the executed
               prefix (faulting instruction included) is recoverable *)
            t.fuse_start <- -1;
            t.slice_n <- t.slice_n + (fr.epc - p + 1);
            unwind eth kind
        | e ->
            t.fuse_start <- -1;
            t.slice_n <- t.slice_n + (fr.epc - p + 1);
            flush t;
            raise e)
      else (
        (* charged before executing, like the interpreter: an abort
           (e.g. a pacer hard stop) includes it, and anything the
           instruction records sees its own step *)
        t.slice_n <- t.slice_n + 1;
        try fr.ef_ops.(p) eth fr with
        | I.Jexn kind -> unwind eth kind
        | e ->
            flush t;
            raise e)
    end
  done;
  flush t;
  (* nothing else moves [instr_count] inside a slice *)
  let executed = m.I.instr_count - start in
  (* budget exhausted mid-slice: the interpreter stops when the next
     instruction is attempted, charging it first *)
  if
    executed = efuel && efuel < fuel && (not ith.I.finished) && eth.efp > 0
  then begin
    m.I.instr_count <- m.I.instr_count + 1;
    m.I.cost_units <- m.I.cost_units + Barrier_cost.bytecode_units;
    raise (I.Out_of_steps max_steps)
  end;
  executed
