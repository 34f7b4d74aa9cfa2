(** A multi-threaded bytecode interpreter with write-barrier
    instrumentation.

    Every reference store (putfield/putstatic of a reference field,
    aastore) is a {e barrier site}.  The interpreter counts, per site, how
    many times it executes and how often the overwritten value was null —
    the instrumentation behind the paper's Table 1, including the
    "potentially pre-null" upper bound (§4.2).  A {e policy} hands each
    site one {!Jir.Types.verdict} record (normally the analysis's): which
    barrier halves were compiled out, the assumptions each elision stands
    on, and the tracing-state check compiled in its place.  Both engines
    run every store through one barrier body ({!store_barrier}); executed
    barriers invoke the active collector's hook and are charged to the
    RISC cost model.

    Threads are deterministic green threads; the {!Runner} module
    interleaves them and the collector. *)

open Jir.Types

exception Runtime_bug of string

(* The program ran its whole [max_steps] budget (the payload) without
   finishing: an outcome of the program, not a broken invariant. *)
exception Out_of_steps of int

(* The longest array [newarray] allocates; a longer request throws the
   program's [bounds] exception, as a negative length does.  The largest
   workload array has 256 elements. *)
let max_array_length = 1 lsl 20

(* The most frames a thread holds; a call past it kills the thread with
   "stack overflow", which no handler catches.  The deepest workload
   call chain is three frames. *)
let max_call_depth = 1 lsl 18

let bugf fmt = Fmt.kstr (fun s -> raise (Runtime_bug s)) fmt

type site_stats = {
  st_kind : store_kind;
  st_verdict : verdict;
  mutable st_del_elided : bool;
      (** the deletion half is compiled out and not revoked *)
  mutable st_ins_elided : bool;  (** likewise the insertion half *)
  mutable execs : int;
  mutable pre_null_execs : int;
  mutable paid_execs : int;
      (** executions that ran a full barrier (kept, revoked or degraded);
          under the hybrid flavor, executions where at least one half ran *)
  mutable elided_execs : int;
      (** executions that skipped the barrier (both halves, under hybrid) *)
  mutable del_paid_execs : int;  (** hybrid: deletion halves executed *)
  mutable del_elided_execs : int;  (** hybrid: deletion halves skipped *)
  mutable ins_paid_execs : int;  (** hybrid: insertion halves executed *)
  mutable ins_elided_execs : int;  (** hybrid: insertion halves skipped *)
  mutable barrier_units : int;
      (** modelled RISC units charged at this site (barriers + checks) *)
  mutable revocations : int;
      (** times this site (either half) was patched back *)
}

type config = {
  policy : site -> verdict;  (** the verdict at each store site *)
  revoke : bool;
      (** record guard failures and revoke the elisions that depend on
          them at the next safepoint.  [false] ignores them: no guards
          were wired, or (--no-revoke) the run goes open-loop so the
          oracle can demonstrate the failure the guards would have
          caught *)
  satb_mode : Barrier_cost.satb_mode;
  barrier_flavor : [ `Satb | `Hybrid ];
      (** which barrier executes at non-elided sites: the one-call
          barrier (SATB pre-value logging; incremental update dirties a
          card behind the same call) or the fused deletion+insertion
          hybrid pair *)
  max_steps : int;
}

let default_config =
  {
    policy = (fun _ -> keep);
    revoke = false;
    satb_mode = Barrier_cost.Conditional;
    barrier_flavor = `Satb;
    max_steps = 50_000_000;
  }

type frame = {
  f_class : class_name;
  f_meth : meth;
  mutable pc : int;
  locals : Value.t array;
  mutable ostack : Value.t list;
}

type thread = {
  tid : int;
  mutable frames : frame list;  (** top first *)
  mutable depth : int;  (** [List.length frames], kept by calls and returns *)
  mutable finished : bool;
  mutable error : string option;
}

type t = {
  prog : Jir.Program.t;
  heap : Heap.t;
  statics : (class_name * field_name, Value.t) Hashtbl.t;
  mutable threads : thread list;  (** in spawn order *)
  mutable next_tid : int;
  stats : (site, site_stats) Hashtbl.t;
  cfg : config;
  mutable gc : Gc_hooks.t;
  mutable pacer : Pacer.t option;
      (** pacing controller; admission-controls every allocation and
          drives degraded-mode allocation assists *)
  mutable assist_execs : int;
      (** collector increments run on allocating threads' behalf while
          the pacer was degraded *)
  mutable instr_count : int;
  mutable cost_units : int;  (** bytecode + barrier RISC units *)
  mutable barrier_units : int;
  mutable barriers_executed : int;
  mutable elided_barrier_execs : int;
  mutable retrace_checks : int;  (** executed tracing-state checks *)
  mutable in_no_safepoint : bool;
      (** a swap window is open: collector work must be deferred *)
  mutable revoked : assumption list;  (** assumptions observed false *)
  mutable pending_revocations : assumption list;
      (** guard failures noticed mid-quantum, applied at the next
          safepoint (or synchronously at a [Spawn]) *)
  mutable revocation_events : int;  (** assumptions revoked so far *)
  mutable revoked_sites : int;  (** sites flipped back to full barriers *)
  mutable guarded_writes : int list;
      (** objects written through guarded elided sites this marking
          cycle — the repair set handed to [on_revoke] *)
  mutable swap_degraded : bool;
      (** retrace budget overflowed: swap-elided sites execute full
          barriers for the remainder of the cycle *)
  mutable degradations : int;  (** cycles that entered degraded mode *)
  mutable degraded_swap_execs : int;
      (** stores at swap-elided sites that fell back to full barriers *)
  mutable external_paid_execs : int;
      (** chaos-injected external stores that ran a full barrier; no site
          of their own, attributed to the profiler's "external" row *)
  mutable external_elided_execs : int;
      (** chaos-injected external stores through live guarded elisions *)
  field_index : (field_ref, int) Hashtbl.t;
  alloc_sites : (site, int) Hashtbl.t;
      (** interned {!Sitemap} ids of allocation sites, cached per program
          point so the allocation fast path does no string formatting *)
  mutable track_heap : bool;
      (** heap observatory armed: elided stores during marking append to
          [elided_write_log] (one flag test when off) *)
  mutable elided_write_log : (int * int) list;
      (** [(obj, verdict_class)] for stores whose barrier (or a half of
          it) was elided while marking — lets the float accounting split
          per-verdict; verdict classes are the [ew_*] constants *)
  mutable stack_roots_override : (unit -> (int * int list) list) option;
      (** installed by the threaded engine ({!Exec}), which owns the live
          thread stacks; {!thread_roots} and {!roots} consult it so the
          collectors see the same root set in the same enumeration order
          under either engine *)
}

exception Jexn of exn_kind

let jthrow kind = raise (Jexn kind)

let create ?(cfg = default_config) (prog : Jir.Program.t) : t =
  let statics = Hashtbl.create 64 in
  List.iter
    (fun (c : cls) ->
      List.iter
        (fun fd ->
          Hashtbl.replace statics (c.cname, fd.fd_name)
            (match fd.fd_ty with I -> Value.Int 0 | R -> Value.Null))
        c.statics)
    (Jir.Program.classes prog);
  {
    prog;
    heap = Heap.create ();
    statics;
    threads = [];
    next_tid = 0;
    stats = Hashtbl.create 256;
    cfg;
    gc = Gc_hooks.none;
    pacer = None;
    assist_execs = 0;
    instr_count = 0;
    cost_units = 0;
    barrier_units = 0;
    barriers_executed = 0;
    elided_barrier_execs = 0;
    retrace_checks = 0;
    in_no_safepoint = false;
    revoked = [];
    pending_revocations = [];
    revocation_events = 0;
    revoked_sites = 0;
    guarded_writes = [];
    swap_degraded = false;
    degradations = 0;
    degraded_swap_execs = 0;
    external_paid_execs = 0;
    external_elided_execs = 0;
    field_index = Hashtbl.create 64;
    alloc_sites = Hashtbl.create 64;
    track_heap = false;
    elided_write_log = [];
    stack_roots_override = None;
  }

let set_collector m gc = m.gc <- gc
let set_pacer m p = m.pacer <- Some p

(* ---- heap observatory hooks ------------------------------------------- *)

(* Verdict classes of an elided-write-log entry: which (half of the)
   barrier the store skipped.  Plain ints so the barrier conses a two-int
   tuple and nothing else. *)
let ew_full = 0 (* whole barrier elided ([`Satb] flavor) *)
let ew_del = 1 (* hybrid: deletion half elided, insertion ran *)
let ew_ins = 2 (* hybrid: insertion half elided, deletion ran *)
let ew_both = 3 (* hybrid: both halves elided *)

(* One flag test on the elided fast path when the observatory is off;
   recording is gated on marking because only stores inside a cycle can
   change what that cycle floats. *)
let note_elided_write (m : t) ~(obj : int) (cls : int) : unit =
  if m.track_heap && obj >= 0 && m.gc.is_marking () then
    m.elided_write_log <- (obj, cls) :: m.elided_write_log

(* ---- guards and revocation -------------------------------------------- *)

(** Is the whole store's barrier elided?  Under [`Satb] the deletion half
    is the whole barrier; under [`Hybrid] both halves must be. *)
let elided (m : t) (st : site_stats) : bool =
  st.st_del_elided
  && (st.st_ins_elided || m.cfg.barrier_flavor = `Satb)

(** The site's whole guard set, as reports show it: the deletion half's
    under [`Satb], both halves' (sorted, deduplicated) under [`Hybrid]. *)
let guards (m : t) (st : site_stats) : assumption list =
  let v = st.st_verdict in
  match m.cfg.barrier_flavor with
  | `Satb -> v.del_guards
  | `Hybrid -> List.sort_uniq compare (v.del_guards @ v.ins_guards)

(** [revoke.site] event: the runtime patched the deletion half ([del]),
    the insertion half ([ins]) or both of one elided site back to a full
    barrier.  The first guard of what flipped that is in [failed] is the
    provenance.  Also carries the site's whole guard set, whether it
    [materialized] already patched (first executed after the
    revocation), and, when one was wired, the analysis's justification
    of the half that flipped: the insertion half's when it flipped
    alone, the deletion half's otherwise.  Under [`Satb] the deletion
    half is the whole barrier. *)
let record_revoked_site (m : t) (site : site) (st : site_stats) ~(del : bool)
    ~(ins : bool) ~(failed : assumption list) ~(materialized : bool) : unit =
  let v = st.st_verdict in
  let flipped =
    (if del then v.del_guards else []) @ if ins then v.ins_guards else []
  in
  let guard =
    match List.find_opt (fun a -> List.mem a failed) flipped with
    | Some a -> string_of_assumption a
    | None -> "?"
  in
  let half =
    if (del && ins) || m.cfg.barrier_flavor = `Satb then Flight.Full
    else if del then Flight.Del
    else Flight.Ins
  in
  Flight.record
    (Flight.Revoke_site
       {
         site = string_of_site site;
         guards = List.map string_of_assumption (guards m st);
         guard;
         half;
         materialized;
         justification =
           Lazy.force (if half = Flight.Ins then v.ins_why else v.del_why);
       })

(** Note an assumption observed false.  The revocation itself happens at
    the next safepoint ({!apply_revocations}); deduplicated, and inert
    unless [cfg.revoke] holds. *)
let request_revoke (m : t) (a : assumption) : unit =
  if
    m.cfg.revoke
    && (not (List.mem a m.revoked))
    && not (List.mem a m.pending_revocations)
  then begin
    m.pending_revocations <- a :: m.pending_revocations;
    Flight.record
      (Flight.Revoke_request { assumption = string_of_assumption a })
  end

(** Atomically flip every half depending on a failed assumption back to a
    full barrier, then hand the cycle's guarded-write set to the
    collector for snapshot repair.  Must run at a safepoint: the runner
    calls it between quanta (never inside a swap window), and [Spawn]
    calls it synchronously before the new thread can run. *)
let apply_revocations (m : t) : unit =
  if m.pending_revocations <> [] then begin
    let failed = m.pending_revocations in
    m.pending_revocations <- [];
    m.revoked <- failed @ m.revoked;
    m.revocation_events <- m.revocation_events + List.length failed;
    Flight.record
      (Flight.Revoke_apply
         {
           assumptions = List.map string_of_assumption failed;
           repair_set = List.length m.guarded_writes;
         });
    let hit guards = List.exists (fun a -> List.mem a failed) guards in
    Hashtbl.iter
      (fun site st ->
        (* each half revokes against its own guard set; a site counts as
           one revocation even if both halves flip together *)
        let del = st.st_del_elided && hit st.st_verdict.del_guards in
        let ins = st.st_ins_elided && hit st.st_verdict.ins_guards in
        if del then st.st_del_elided <- false;
        if ins then st.st_ins_elided <- false;
        if del || ins then begin
          st.revocations <- st.revocations + 1;
          m.revoked_sites <- m.revoked_sites + 1;
          record_revoked_site m site st ~del ~ins ~failed ~materialized:false
        end)
      m.stats;
    (* Repair: every object written through a guarded elided site this
       cycle may have had a pre-value go unlogged; the collector re-scans
       them (retrace) or restarts from a fresh snapshot (plain SATB). *)
    if m.gc.is_marking () then m.gc.on_revoke ~objs:m.guarded_writes;
    m.guarded_writes <- []
  end

(** A chaos-injected second mutator was observed (late-spawn fault): the
    single-mutator assumption is false from here on. *)
let note_second_mutator (m : t) : unit = request_revoke m Single_mutator

(** A chaos-injected class load was observed: the closed-world assumption
    behind the callee summaries is false from here on, so every
    summary-dependent elision must revoke. *)
let note_class_load (m : t) : unit = request_revoke m Closed_world

(** Marking-cycle lifecycle (called by the runner at cycle start/end):
    the guarded-write repair set and the degradation flag are per-cycle. *)
let reset_cycle_state (m : t) : unit =
  m.guarded_writes <- [];
  m.elided_write_log <- [];
  m.swap_degraded <- false

(** Enter degraded mode: the retrace budget overflowed, so swap-elided
    sites execute full logging barriers for the rest of the cycle.
    Applied at safepoints only, so it never lands inside a swap window. *)
let set_swap_degraded (m : t) : unit =
  if not m.swap_degraded then begin
    m.swap_degraded <- true;
    m.degradations <- m.degradations + 1;
    Flight.record
      (Flight.Runtime_degraded { reason = "retrace-budget-overflow" })
  end

let field_index m fr =
  match Hashtbl.find_opt m.field_index fr with
  | Some i -> i
  | None ->
      let i = Jir.Program.field_index m.prog fr in
      Hashtbl.replace m.field_index fr i;
      i

(** Interned {!Sitemap} id of the allocation site at [fr]'s current pc.
    Cached like {!field_index}: the string is formatted once per program
    point, after which the fast path is one hash lookup. *)
let alloc_site (m : t) (fr : frame) : int =
  let key =
    { s_class = fr.f_class; s_method = fr.f_meth.mname; s_pc = fr.pc }
  in
  match Hashtbl.find_opt m.alloc_sites key with
  | Some id -> id
  | None ->
      let id = Sitemap.intern (string_of_site key) in
      Hashtbl.replace m.alloc_sites key id;
      id

(** Spawn a thread running [mr] with [args] already evaluated. *)
let spawn_thread (m : t) (mr : method_ref) (args : Value.t list) : thread =
  let meth = Jir.Program.get_method m.prog mr in
  let locals = Array.make meth.max_locals Value.Null in
  List.iteri (fun i v -> locals.(i) <- v) args;
  let th =
    {
      tid = m.next_tid;
      frames =
        [ { f_class = mr.mclass; f_meth = meth; pc = 0; locals; ostack = [] } ];
      depth = 1;
      finished = false;
      error = None;
    }
  in
  m.next_tid <- m.next_tid + 1;
  (* A second mutator falsifies the single-mutator assumption.  Revoke
     synchronously — [Spawn] is never inside a swap window (the analysis
     only whitelists simple non-throwing instructions there), and the new
     thread may otherwise run up to a full quantum before the next
     safepoint would apply the patch. *)
  if m.threads <> [] then begin
    request_revoke m Single_mutator;
    apply_revocations m
  end;
  m.threads <- m.threads @ [ th ];
  th

(* ---- GC root enumeration ---------------------------------------------- *)

(** Static roots alone — the part of the root set the hybrid collector
    marks at cycle start (stacks are scanned lazily). *)
let static_roots (m : t) : int list =
  let acc = ref [] in
  Hashtbl.iter
    (fun _ v -> match v with Value.Ref id -> acc := id :: !acc | _ -> ())
    m.statics;
  !acc

(** One interpreter thread's stack roots: frames top first, locals in
    index order, then the operand stack top first, prepend-accumulated.
    Marking progress depends on root order, so the threaded engine's
    override must reproduce exactly this enumeration. *)
let interp_stack_roots (th : thread) : int list =
  let acc = ref [] in
  let add = function Value.Ref id -> acc := id :: !acc | Value.Null | Value.Int _ -> () in
  List.iter
    (fun fr ->
      Array.iter add fr.locals;
      List.iter add fr.ostack)
    th.frames;
  !acc

(** Per-thread stack roots: [(tid, refs held in that thread's frames)],
    including finished threads' (empty) frames so the collector sees every
    tid it may have been asked about.  When the threaded engine owns the
    live stacks it installs {!t.stack_roots_override}. *)
let thread_roots (m : t) : (int * int list) list =
  match m.stack_roots_override with
  | Some f -> f ()
  | None -> List.map (fun th -> (th.tid, interp_stack_roots th)) m.threads

(** All reference values currently held in thread stacks and statics —
    list-identical to the historical single-pass enumeration (statics
    first, threads in spawn order, each segment prepend-reversed). *)
let roots (m : t) : int list =
  List.fold_left (fun acc (_, l) -> l @ acc) (static_roots m) (thread_roots m)

(* ---- barrier instrumentation ------------------------------------------ *)

(** Find or materialize the per-site record.  Both engines materialize a
    site at its first execution, so in the same order.  A half first
    reached after one of its assumptions was revoked materializes already
    patched. *)
let site_stats (m : t) (site : site) (kind : store_kind) : site_stats =
  match Hashtbl.find_opt m.stats site with
  | Some st -> st
  | None ->
      let v = m.cfg.policy site in
      let dead guards = List.exists (fun a -> List.mem a m.revoked) guards in
      let del = v.del_elide && dead v.del_guards in
      let ins = v.ins_elide && dead v.ins_guards in
      let st =
        {
          st_kind = kind; st_verdict = v; st_del_elided = v.del_elide && not del;
          st_ins_elided = v.ins_elide && not ins; execs = 0; pre_null_execs = 0;
          paid_execs = 0; elided_execs = 0; del_paid_execs = 0; del_elided_execs = 0;
          ins_paid_execs = 0; ins_elided_execs = 0; barrier_units = 0;
          revocations = (if del || ins then 1 else 0);
        }
      in
      Hashtbl.replace m.stats site st;
      if del || ins then begin
        m.revoked_sites <- m.revoked_sites + 1;
        record_revoked_site m site st ~del ~ins ~failed:m.revoked
          ~materialized:true
      end;
      st

let charge (m : t) (st : site_stats) (cost : int) : unit =
  m.barrier_units <- m.barrier_units + cost;
  m.cost_units <- m.cost_units + cost;
  st.barrier_units <- st.barrier_units + cost

(** The write-barrier protocol for one reference store, shared by both
    engines: the interpreter reaches it through {!ref_store_barrier}, the
    threaded engine's store opcodes call it with the site's cached
    record.  [obj = -1] for static stores; [nv] is the value being stored
    and [tid] the storing thread (both consumed by the insertion half
    only).

    The deletion half is SATB's whole barrier: elided, it runs the
    site's tracing-state check instead; in degraded mode (retrace-budget
    overflow) a swap site pays it for the rest of the cycle.  Only the
    [`Hybrid] flavor has an insertion half and counts the halves apart.
    A store counts as elided iff every half it has was skipped, so
    [execs = paid_execs + elided_execs] always holds. *)
let store_barrier (m : t) (st : site_stats) ~(tid : int) ~(obj : int)
    ~(pre : Value.t) ~(nv : Value.t) : unit =
  st.execs <- st.execs + 1;
  let pre_null = not (Value.is_ref pre) in
  if pre_null then st.pre_null_execs <- st.pre_null_execs + 1;
  let v = st.st_verdict in
  let hybrid = m.cfg.barrier_flavor = `Hybrid in
  let log = m.cfg.satb_mode <> Barrier_cost.No_barrier in
  let del = st.st_del_elided && not (m.swap_degraded && v.check <> No_check) in
  if del then begin
    if hybrid then st.del_elided_execs <- st.del_elided_execs + 1;
    match v.check with
    | No_check -> ()
    | (Check_open | Check_close) as check ->
        m.retrace_checks <- m.retrace_checks + 1;
        charge m st Barrier_cost.tracing_check_units;
        m.gc.on_unlogged_store ~obj;
        m.in_no_safepoint <- check = Check_open
  end
  else begin
    (* a degraded swap site: degradation is only applied at safepoints,
       so its open store cannot have left a window open, but the close
       store clears it defensively *)
    if st.st_del_elided then begin
      m.degraded_swap_execs <- m.degraded_swap_execs + 1;
      if v.check = Check_close then m.in_no_safepoint <- false
    end;
    if hybrid then st.del_paid_execs <- st.del_paid_execs + 1;
    if log then begin
      charge m st
        (Barrier_cost.satb_cost
           ~mode:(if hybrid then Barrier_cost.Conditional else m.cfg.satb_mode)
           ~marking:(m.gc.is_marking ()) ~pre_null);
      m.gc.log_ref_store ~obj ~pre
    end
  end;
  (* insertion half: shade the stored value while the storing thread's
     stack is grey; the collector owns the scan-state test *)
  let ins = hybrid && st.st_ins_elided in
  if hybrid then
    if ins then st.ins_elided_execs <- st.ins_elided_execs + 1
    else begin
      st.ins_paid_execs <- st.ins_paid_execs + 1;
      if log then begin
        charge m st
          (Barrier_cost.hybrid_ins_cost ~marking:(m.gc.is_marking ())
             ~stack_grey:true);
        m.gc.log_ins_store ~tid ~nv
      end
    end;
  (* repair set: a guarded elision may have let a pre-value go unlogged;
     an insertion elision under a freshness proof needs its destination
     re-scanned at remark regardless of guards *)
  if
    obj >= 0
    && ((del && v.del_guards <> [])
       || (ins && (v.ins_repair || v.ins_guards <> [])))
    && m.gc.is_marking ()
  then m.guarded_writes <- obj :: m.guarded_writes;
  if m.track_heap && (del || ins) then
    note_elided_write m ~obj
      (if not hybrid then ew_full
       else if del && ins then ew_both
       else if del then ew_del
       else ew_ins);
  if del && (ins || not hybrid) then begin
    m.elided_barrier_execs <- m.elided_barrier_execs + 1;
    st.elided_execs <- st.elided_execs + 1
  end
  else begin
    m.barriers_executed <- m.barriers_executed + 1;
    st.paid_execs <- st.paid_execs + 1
  end

(** The interpreter's store path: build the site key from the current
    frame, find (or materialize) its record, run the barrier. *)
let ref_store_barrier (m : t) (fr : frame) ~(kind : store_kind) ~(tid : int)
    ~(obj : int) ~(pre : Value.t) ~(nv : Value.t) : unit =
  let site = { s_class = fr.f_class; s_method = fr.f_meth.mname; s_pc = fr.pc } in
  store_barrier m (site_stats m site kind) ~tid ~obj ~pre ~nv

(* ---- external (chaos-injected) mutator stores ------------------------- *)

(** Does any materialized site still elide its barrier on the strength of
    assumption [a]?  Used by {!external_guarded_store} to decide whether
    a chaos-injected second mutator would be executing guarded elided
    code at all. *)
let has_live_guarded_elisions (m : t) (a : assumption) : bool =
  Hashtbl.fold
    (fun _ st acc ->
      acc
      || (st.st_del_elided && List.mem a st.st_verdict.del_guards)
      || (st.st_ins_elided && List.mem a st.st_verdict.ins_guards))
    m.stats false

let external_slot_store (m : t) ~(obj : int) ~(idx : int) ~(v : Value.t)
    ~(log : pre:Value.t -> unit) : unit =
  if obj >= 0 && obj < m.heap.Heap.next_id then begin
    let o = Heap.get m.heap obj in
    if not o.Heap.dead then
      let store slots i =
        log ~pre:slots.(i);
        slots.(i) <- v
      in
      match o.Heap.payload with
      | Heap.Ref_array es ->
          if idx >= 0 && idx < Array.length es then store es idx
      | Heap.Fields fs -> if idx >= 0 && idx < Array.length fs then store fs idx
      | Heap.Int_array _ -> ()
  end

(** A store performed by a chaos-injected second mutator through a
    [Single_mutator]-guarded elided site: it takes the unlogged (elided)
    path only while such sites are still live and the assumption stands
    unrevoked — after a revocation the patched code executes the full
    barrier, which is exactly the property the E11 experiment checks. *)
let external_guarded_store (m : t) ~(obj : int) ~(idx : int) ~(v : Value.t) :
    unit =
  let elided =
    (not (List.mem Single_mutator m.revoked))
    && has_live_guarded_elisions m Single_mutator
  in
  external_slot_store m ~obj ~idx ~v ~log:(fun ~pre ->
      if elided then begin
        m.elided_barrier_execs <- m.elided_barrier_execs + 1;
        m.external_elided_execs <- m.external_elided_execs + 1;
        if m.gc.is_marking () then m.guarded_writes <- obj :: m.guarded_writes
      end
      else begin
        m.barriers_executed <- m.barriers_executed + 1;
        m.external_paid_execs <- m.external_paid_execs + 1;
        m.gc.log_ref_store ~obj ~pre;
        (* tid -1: an external mutator has no scanned stack, so a hybrid
           collector treats it as permanently grey and shades [v] *)
        m.gc.log_ins_store ~tid:(-1) ~nv:v
      end)

(** A store with {e no} barrier at all — the deliberate barrier-skip
    fault.  Nothing is logged and nothing can repair it; the oracle must
    report the resulting snapshot violation (checker-of-the-checker). *)
let external_unbarriered_store (m : t) ~(obj : int) ~(idx : int)
    ~(v : Value.t) : unit =
  external_slot_store m ~obj ~idx ~v ~log:(fun ~pre:_ -> ())

(* ---- interpretation --------------------------------------------------- *)

let pop fr =
  match fr.ostack with
  | v :: rest ->
      fr.ostack <- rest;
      v
  | [] -> bugf "operand stack underflow at %s.%s@%d" fr.f_class fr.f_meth.mname fr.pc

let push fr v = fr.ostack <- v :: fr.ostack

let pop_int fr =
  match pop fr with
  | Value.Int n -> n
  | v -> bugf "expected int, got %a" Value.pp v

let pop_ref_or_null fr =
  match pop fr with
  | (Value.Null | Value.Ref _) as v -> v
  | Value.Int _ -> bugf "expected ref, got int"

let pop_obj m fr =
  match pop_ref_or_null fr with
  | Value.Ref id ->
      let o = Heap.get m.heap id in
      (* a swept object reached through a live reference means the
         collector (or an unsound barrier removal) freed live data *)
      if o.Heap.dead then
        bugf "use-after-free of #%d (%s) at %s.%s@%d" id o.Heap.cls fr.f_class
          fr.f_meth.mname fr.pc;
      o
  | Value.Null -> jthrow Null_deref
  | Value.Int _ -> assert false

let fields_of (o : Heap.obj) =
  match o.payload with
  | Heap.Fields fs -> fs
  | Heap.Ref_array _ | Heap.Int_array _ -> bugf "expected object, got array"

let ref_elems_of (o : Heap.obj) =
  match o.payload with
  | Heap.Ref_array es -> es
  | Heap.Fields _ | Heap.Int_array _ -> bugf "expected object array"

let int_elems_of (o : Heap.obj) =
  match o.payload with
  | Heap.Int_array es -> es
  | Heap.Fields _ | Heap.Ref_array _ -> bugf "expected int array"

(** Allocate and notify the collector.  The pacer (when installed)
    admission-controls the allocation {e before} it happens — so the live
    heap provably never exceeds a hard limit — and, while degraded, makes
    the allocating thread assist: it runs one collector increment on the
    spot, shortening the outstanding mark. *)
let admit m ~units =
  match m.pacer with
  | None -> ()
  | Some p ->
      Pacer.before_alloc p m.heap ~units;
      if Pacer.degraded p && m.gc.is_marking () && not m.in_no_safepoint
      then begin
        m.gc.step ();
        m.assist_execs <- m.assist_execs + 1;
        Pacer.note_assist p
      end

let allocate m ~units mk =
  admit m ~units;
  let o = mk () in
  m.gc.on_alloc o;
  o

(** Chaos-injected allocation ballast: [count] small unreachable objects
    (two fields, four heap units each), allocated through the normal
    admission-controlled path so spikes exercise the pacer exactly like
    mutator pressure — including {!Pacer.Hard_limit}. *)
let external_alloc (m : t) ~(count : int) : unit =
  for _ = 1 to count do
    ignore
      (allocate m ~units:4 (fun () ->
           Heap.alloc_object ~site:Sitemap.runtime_site m.heap "chaos.Ballast"
             ~n_fields:2))
  done

(** Kill [th] with [error]: no handler runs. *)
let die (th : thread) (error : string) : unit =
  th.frames <- [];
  th.depth <- 0;
  th.finished <- true;
  th.error <- Some error

(** Unwind after a runtime exception of [kind] raised at the current pc of
    the top frame. *)
let unwind (m : t) (th : thread) (kind : exn_kind) : unit =
  ignore m;
  let matches (h : int handler) =
    match h.kind, kind with
    | Any, _ -> true
    | Bounds, Bounds | Null_deref, Null_deref | Arith, Arith -> true
    | (Bounds | Null_deref | Arith), _ -> false
  in
  let rec go = function
    | [] -> die th (string_of_exn_kind kind)
    | (fr : frame) :: rest -> (
        let candidate =
          List.find_opt
            (fun h -> fr.pc >= h.from_pc && fr.pc < h.to_pc && matches h)
            fr.f_meth.handlers
        in
        match candidate with
        | Some h ->
            fr.ostack <- [];
            fr.pc <- h.target;
            th.frames <- fr :: rest
        | None ->
            th.depth <- th.depth - 1;
            go rest)
  in
  go th.frames

(** Execute one instruction of [th].  Returns [false] once the thread has
    finished. *)
let step (m : t) (th : thread) : bool =
  match th.frames with
  | [] ->
      th.finished <- true;
      false
  | fr :: callers -> (
      m.instr_count <- m.instr_count + 1;
      m.cost_units <- m.cost_units + Barrier_cost.bytecode_units;
      if m.instr_count > m.cfg.max_steps then
        raise (Out_of_steps m.cfg.max_steps);
      let code = fr.f_meth.code in
      if fr.pc < 0 || fr.pc >= Array.length code then
        bugf "pc out of range in %s.%s" fr.f_class fr.f_meth.mname;
      let next () = fr.pc <- fr.pc + 1 in
      try
        (match code.(fr.pc) with
        | Iconst n ->
            push fr (Value.Int (wrap n));
            next ()
        | Aconst_null ->
            push fr Value.Null;
            next ()
        | Iload i ->
            push fr fr.locals.(i);
            next ()
        | Aload i ->
            push fr fr.locals.(i);
            next ()
        | Istore i | Astore i ->
            fr.locals.(i) <- pop fr;
            next ()
        | Iinc (i, d) ->
            (match fr.locals.(i) with
            | Value.Int n -> fr.locals.(i) <- Value.Int (wrap (n + d))
            | v -> bugf "iinc of %a" Value.pp v);
            next ()
        | Ibin op ->
            let b = pop_int fr in
            let a = pop_int fr in
            let r =
              match op with
              | Add -> a + b
              | Sub -> a - b
              | Mul -> a * b
              | Div -> if b = 0 then jthrow Arith else a / b
              | Rem -> if b = 0 then jthrow Arith else a mod b
            in
            push fr (Value.Int (wrap r));
            next ()
        | Ineg ->
            push fr (Value.Int (wrap (-pop_int fr)));
            next ()
        | Dup ->
            let v = pop fr in
            push fr v;
            push fr v;
            next ()
        | Pop ->
            let _ = pop fr in
            next ()
        | Swap ->
            let a = pop fr in
            let b = pop fr in
            push fr a;
            push fr b;
            next ()
        | Goto l -> fr.pc <- l
        | If_i (c, l) ->
            let a = pop_int fr in
            if eval_cond c a 0 then fr.pc <- l else next ()
        | If_icmp (c, l) ->
            let b = pop_int fr in
            let a = pop_int fr in
            if eval_cond c a b then fr.pc <- l else next ()
        | If_null l -> (
            match pop_ref_or_null fr with
            | Value.Null -> fr.pc <- l
            | _ -> next ())
        | If_nonnull l -> (
            match pop_ref_or_null fr with
            | Value.Null -> next ()
            | _ -> fr.pc <- l)
        | If_acmp (want_eq, l) ->
            let b = pop_ref_or_null fr in
            let a = pop_ref_or_null fr in
            if Value.equal a b = want_eq then fr.pc <- l else next ()
        | Getstatic r ->
            push fr (Hashtbl.find m.statics (r.fclass, r.fname));
            next ()
        | Putstatic r ->
            let v = pop fr in
            (if Jir.Types.equal_ty (Jir.Program.static_ty m.prog r) R then
               let pre = Hashtbl.find m.statics (r.fclass, r.fname) in
               ref_store_barrier m fr ~kind:Static_store ~tid:th.tid ~obj:(-1)
                 ~pre ~nv:v);
            Hashtbl.replace m.statics (r.fclass, r.fname) v;
            next ()
        | Getfield r ->
            let o = pop_obj m fr in
            push fr (fields_of o).(field_index m r);
            next ()
        | Putfield r ->
            let v = pop fr in
            let o = pop_obj m fr in
            let fs = fields_of o in
            let idx = field_index m r in
            (if Jir.Types.equal_ty (Jir.Program.field_ty m.prog r) R then
               ref_store_barrier m fr ~kind:Field_store ~tid:th.tid ~obj:o.id
                 ~pre:fs.(idx) ~nv:v);
            fs.(idx) <- v;
            next ()
        | New cn ->
            let c = Jir.Program.get_class m.prog cn in
            let n_fields = List.length c.fields in
            let site = alloc_site m fr in
            let o =
              allocate m ~units:(2 + n_fields) (fun () ->
                  Heap.alloc_object ~site m.heap cn ~n_fields)
            in
            push fr (Value.Ref o.id);
            next ()
        | Newarray ety ->
            let len = pop_int fr in
            if len < 0 || len > max_array_length then jthrow Bounds;
            let site = alloc_site m fr in
            let o =
              allocate m ~units:(2 + len) (fun () ->
                  match ety with
                  | Elem_ref cn -> Heap.alloc_ref_array ~site m.heap cn ~len
                  | Elem_int -> Heap.alloc_int_array ~site m.heap ~len)
            in
            push fr (Value.Ref o.id);
            next ()
        | Aaload ->
            let i = pop_int fr in
            let o = pop_obj m fr in
            let es = ref_elems_of o in
            if i < 0 || i >= Array.length es then jthrow Bounds;
            push fr es.(i);
            next ()
        | Aastore ->
            let v = pop fr in
            let i = pop_int fr in
            let o = pop_obj m fr in
            let es = ref_elems_of o in
            if i < 0 || i >= Array.length es then jthrow Bounds;
            ref_store_barrier m fr ~kind:Array_store ~tid:th.tid ~obj:o.id
              ~pre:es.(i) ~nv:v;
            es.(i) <- v;
            next ()
        | Iaload ->
            let i = pop_int fr in
            let o = pop_obj m fr in
            let es = int_elems_of o in
            if i < 0 || i >= Array.length es then jthrow Bounds;
            push fr (Value.Int es.(i));
            next ()
        | Iastore ->
            let v = pop_int fr in
            let i = pop_int fr in
            let o = pop_obj m fr in
            let es = int_elems_of o in
            if i < 0 || i >= Array.length es then jthrow Bounds;
            es.(i) <- v;
            next ()
        | Arraylength ->
            let o = pop_obj m fr in
            let len =
              match o.payload with
              | Heap.Ref_array es -> Array.length es
              | Heap.Int_array es -> Array.length es
              | Heap.Fields _ -> bugf "arraylength of non-array"
            in
            push fr (Value.Int len);
            next ()
        | Invoke _ when th.depth >= max_call_depth -> die th "stack overflow"
        | Invoke mr ->
            let callee = Jir.Program.get_method m.prog mr in
            let nargs = List.length callee.params in
            let locals = Array.make callee.max_locals Value.Null in
            for k = nargs - 1 downto 0 do
              locals.(k) <- pop fr
            done;
            let new_frame =
              {
                f_class = mr.mclass;
                f_meth = callee;
                pc = 0;
                locals;
                ostack = [];
              }
            in
            (* fr.pc stays at the call site until the callee returns, so
               exception handler ranges cover the invoke *)
            th.frames <- new_frame :: fr :: callers;
            th.depth <- th.depth + 1
        | Spawn mr ->
            let callee = Jir.Program.get_method m.prog mr in
            let nargs = List.length callee.params in
            let args = Array.make nargs Value.Null in
            for k = nargs - 1 downto 0 do
              args.(k) <- pop fr
            done;
            let _ = spawn_thread m mr (Array.to_list args) in
            next ()
        | Return -> (
            match callers with
            | [] ->
                th.frames <- [];
                th.depth <- 0;
                th.finished <- true
            | caller :: _ ->
                caller.pc <- caller.pc + 1;
                th.frames <- callers;
                th.depth <- th.depth - 1)
        | Ireturn | Areturn -> (
            let v = pop fr in
            match callers with
            | [] ->
                th.frames <- [];
                th.depth <- 0;
                th.finished <- true
            | caller :: _ ->
                push caller v;
                caller.pc <- caller.pc + 1;
                th.frames <- callers;
                th.depth <- th.depth - 1));
        not th.finished
      with Jexn kind ->
        unwind m th kind;
        not th.finished)

(* ---- aggregate statistics --------------------------------------------- *)

type dyn_stats = {
  total_execs : int;  (** dynamic reference-store (barrier) executions *)
  elided_execs : int;
  pot_pre_null_execs : int;
      (** executions at sites whose pre-value was never non-null *)
  field_execs : int;  (** putfield only; statics are counted apart *)
  field_elided : int;
  array_execs : int;
  array_elided : int;
  static_execs : int;  (** putstatic of reference statics (never elided) *)
}

let dyn_stats (m : t) : dyn_stats =
  let total = ref 0
  and elided_ = ref 0
  and pot = ref 0
  and field = ref 0
  and field_e = ref 0
  and array = ref 0
  and array_e = ref 0
  and static_ = ref 0 in
  Hashtbl.iter
    (fun _ st ->
      let e = elided m st in
      total := !total + st.execs;
      if e then elided_ := !elided_ + st.execs;
      if st.pre_null_execs = st.execs then pot := !pot + st.execs;
      match st.st_kind with
      | Field_store ->
          field := !field + st.execs;
          if e then field_e := !field_e + st.execs
      | Static_store -> static_ := !static_ + st.execs
      | Array_store ->
          array := !array + st.execs;
          if e then array_e := !array_e + st.execs)
    m.stats;
  {
    total_execs = !total;
    elided_execs = !elided_;
    pot_pre_null_execs = !pot;
    field_execs = !field;
    field_elided = !field_e;
    array_execs = !array;
    array_elided = !array_e;
    static_execs = !static_;
  }

let pct num den = if den = 0 then 0.0 else 100.0 *. float_of_int num /. float_of_int den

let pp_dyn_stats ppf (d : dyn_stats) =
  Fmt.pf ppf
    "barriers: %d execs, %.1f%% elided, %.1f%% potentially pre-null; field %d (%.1f%% elided), array %d (%.1f%% elided), static %d"
    d.total_execs
    (pct d.elided_execs d.total_execs)
    (pct d.pot_pre_null_execs d.total_execs)
    d.field_execs
    (pct d.field_elided d.field_execs)
    d.array_execs
    (pct d.array_elided d.array_execs)
    d.static_execs
