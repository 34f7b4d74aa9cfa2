(** The one concurrent marker behind every collector in the runtime.

    SATB ({!Satb_gc}), incremental update ({!Incr_gc}), SATB with the
    §4.3 retrace protocol ({!Retrace_gc}) and the Go-style hybrid barrier
    ({!Hybrid_gc}) run the same cycle: an initial mark of the roots,
    bounded increments that drain a gray stack, a final (remark) pause,
    an oracle check and a sweep.  They differ only in what the mutator's
    barrier logs and how the marker consumes that log, so each collector
    module is just a {!policy} over this machinery; its soundness argument
    lives in that module's header.

    Every cycle is verified against the {!Oracle}: a wrongly removed
    barrier shows up as a violation, which is how running the workloads
    end to end tests the barrier-removal analysis. *)

module Iset = Oracle.Iset

(* ---- policies ---------------------------------------------------------- *)

type direction = Descending | Ascending
type scan = Whole_object | Chunked of { chunk : int; direction : direction }

type log =
  | Satb_buffers of { capacity : int }
  | Retrace_list of { capacity : int; budget : int }
  | Cards
  | Shades

type roots = All_roots | Grey_stacks
type oracle = Start_snapshot | End_reachability
type alloc = Black | White_unless_degraded

type policy = {
  name : string;
  roots : roots;
  oracle : oracle;
  alloc : alloc;
  scan : scan;
  log : log;
}

(* the capability bits follow from the policy, so they cannot drift from
   what the marker actually does *)
let caps (p : policy) : Gc_hooks.caps =
  {
    Gc_hooks.retrace_protocol =
      (match p.log with Retrace_list _ -> true | _ -> false);
    descending_scan =
      (match p.scan with
      | Chunked { direction = Descending; _ } -> true
      | Chunked { direction = Ascending; _ } | Whole_object -> false);
    insertion_half = (match p.log with Shades -> true | _ -> false);
  }

(* ---- state ------------------------------------------------------------- *)

type root_source = {
  all : unit -> int list;
  statics : unit -> int list;
  stacks : unit -> (int * int list) list;
}

let fixed_roots f = { all = f; statics = f; stacks = (fun () -> []) }

type phase = Idle | Marking

(** Gray-set entries: a whole object, or the remainder of a partially
    scanned object array (slots [0..upto] still to visit in the scan
    direction). *)
type gray = Whole of int | Array_tail of { id : int; upto : int }

type counts = {
  mutable increments : int;
  mutable allocated_during : int;
  mutable logged : int;
  mutable restarts : int;
  mutable rescans : int;
  mutable enqueued : int;
  mutable budget_overflows : int;
  mutable repair_enqueues : int;
  mutable rescan_rounds : int;
  mutable del_shades : int;
  mutable ins_shades : int;
  mutable stack_scans : int;
}

let zero_counts () =
  {
    increments = 0;
    allocated_during = 0;
    logged = 0;
    restarts = 0;
    rescans = 0;
    enqueued = 0;
    budget_overflows = 0;
    repair_enqueues = 0;
    rescan_rounds = 0;
    del_shades = 0;
    ins_shades = 0;
    stack_scans = 0;
  }

type cycle_report = {
  cycle : int;
  snapshot_size : int;
  marked : int;
  final_pause_work : int;
  swept : int;
  degraded : bool;
  violations : int;
  counts : counts;
}

type t = {
  policy : policy;
  heap : Heap.t;
  roots : root_source;
  steps_per_increment : int;
  mutable phase : phase;
  mutable gray : gray list;
  mutable counts : counts;
  mutable snapshot : Iset.t;
  mutable buffer : int list;
  mutable local_buffer : int list;
  mutable local_count : int;
  mutable dirty : Iset.t;
  mutable retrace : int list;
  mutable in_retrace : Iset.t;
  scanned : (int, unit) Hashtbl.t;
  mutable degraded : bool;
  mutable pressure : bool;
  mutable cycles : int;
  mutable reports : cycle_report list;
}

let create ?(steps_per_increment = 64) (policy : policy) (heap : Heap.t)
    ~(roots : root_source) : t =
  {
    policy;
    heap;
    roots;
    steps_per_increment;
    phase = Idle;
    gray = [];
    counts = zero_counts ();
    snapshot = Iset.empty;
    buffer = [];
    local_buffer = [];
    local_count = 0;
    dirty = Iset.empty;
    retrace = [];
    in_retrace = Iset.empty;
    scanned = Hashtbl.create 8;
    degraded = false;
    pressure = false;
    cycles = 0;
    reports = [];
  }

let is_marking t = t.phase = Marking

(* ---- marking ----------------------------------------------------------- *)

let is_white t id =
  let o = Heap.get t.heap id in
  (not o.marked) && not o.dead

(* [origin] records why the cycle keeps the object (a [Heap.origin_*]
   constant); first marker wins, children inherit the parent's origin
   while draining, and the float accounting reads the stamps post-sweep *)
let mark_and_gray t ~origin id =
  let o = Heap.get t.heap id in
  if (not o.marked) && not o.dead then begin
    o.marked <- true;
    o.origin <- origin;
    t.gray <- Whole id :: t.gray
  end

(* Has thread [tid]'s stack been scanned (turned black) this cycle?
   Threads the marker has not seen yet are grey by construction. *)
let stack_grey t ~tid = not (Hashtbl.mem t.scanned tid)

let grey_stacks t =
  match t.policy.roots with
  | All_roots -> []
  | Grey_stacks ->
      List.filter (fun (tid, _) -> stack_grey t ~tid) (t.roots.stacks ())

let scan_stack t (tid, refs) =
  List.iter (mark_and_gray t ~origin:Heap.origin_trace) refs;
  Hashtbl.replace t.scanned tid ();
  t.counts.stack_scans <- t.counts.stack_scans + 1

let all_roots t =
  match t.policy.roots with
  | All_roots -> t.roots.all ()
  | Grey_stacks ->
      t.roots.statics () @ List.concat_map snd (t.roots.stacks ())

(* The initial mark (and a revocation restart): capture the snapshot the
   oracle checks, then gray the roots.  Under [Grey_stacks] only the
   statics are roots here; every thread stack starts the cycle grey. *)
let mark_roots t =
  let roots =
    match t.policy.roots with
    | All_roots -> t.roots.all ()
    | Grey_stacks -> t.roots.statics ()
  in
  if t.policy.oracle = Start_snapshot then
    t.snapshot <- Oracle.reachable t.heap roots;
  List.iter (mark_and_gray t ~origin:Heap.origin_trace) roots

let snapshot_size t =
  match t.policy.oracle with
  | Start_snapshot -> Some (Iset.cardinal t.snapshot)
  | End_reachability -> None

let clear_gray_and_buffers t =
  t.gray <- [];
  t.buffer <- [];
  t.local_buffer <- [];
  t.local_count <- 0

let start_cycle (t : t) : unit =
  assert (t.phase = Idle);
  t.phase <- Marking;
  clear_gray_and_buffers t;
  t.dirty <- Iset.empty;
  t.retrace <- [];
  t.in_retrace <- Iset.empty;
  Hashtbl.reset t.scanned;
  t.counts <- zero_counts ();
  t.degraded <- false;
  mark_roots t;
  Flight.record
    (Flight.Cycle_start
       { collector = t.policy.name; cycle = t.cycles; snapshot_size = snapshot_size t })

(* ---- the barrier log --------------------------------------------------- *)

let card_size = 64

(* a full mutator-local buffer is handed to the collector; only then can
   concurrent marking see its entries (G1's thread-local SATB queues) *)
let hand_over t =
  t.buffer <- List.rev_append t.local_buffer t.buffer;
  t.local_buffer <- [];
  t.local_count <- 0

let log_ref_store t ~obj ~pre =
  if t.phase = Marking then
    match t.policy.log, pre with
    | (Satb_buffers { capacity } | Retrace_list { capacity; _ }), Value.Ref id
      ->
        t.local_buffer <- id :: t.local_buffer;
        t.local_count <- t.local_count + 1;
        t.counts.logged <- t.counts.logged + 1;
        if t.local_count >= capacity then hand_over t
    | Cards, _ ->
        if obj >= 0 then begin
          let card = obj / card_size in
          if not (Iset.mem card t.dirty) then begin
            t.dirty <- Iset.add card t.dirty;
            t.counts.logged <- t.counts.logged + 1
          end
        end
    | Shades, Value.Ref id ->
        if is_white t id then begin
          t.counts.del_shades <- t.counts.del_shades + 1;
          t.counts.logged <- t.counts.logged + 1;
          mark_and_gray t ~origin:Heap.origin_log id
        end
    | (Satb_buffers _ | Retrace_list _ | Shades), (Value.Null | Value.Int _) ->
        ()

let log_ins_store t ~tid ~nv =
  match t.policy.log, nv with
  | Shades, Value.Ref id
    when t.phase = Marking && stack_grey t ~tid && is_white t id ->
      t.counts.ins_shades <- t.counts.ins_shades + 1;
      t.counts.logged <- t.counts.logged + 1;
      mark_and_gray t ~origin:Heap.origin_log id
  | _ -> ()

let enqueue_retrace t id =
  t.in_retrace <- Iset.add id t.in_retrace;
  t.retrace <- id :: t.retrace

(* The tracing-state check at a swap-elided store: nothing was logged, so
   if the object's scan has not provably completed, schedule a
   whole-object re-scan.  Objects allocated during marking are black and
   never scanned, so rearrangements inside them need no retrace. *)
let on_unlogged_store t ~obj =
  match t.policy.log with
  | Retrace_list { budget; _ } when t.phase = Marking && obj >= 0 ->
      let o = Heap.get t.heap obj in
      if
        (not o.dead) && (not o.born_during_mark) && o.trace <> Heap.Traced
        && not (Iset.mem obj t.in_retrace)
      then begin
        (* Termination watchdog: past the budget the cycle is marked
           degraded — the runner disables swap elision for its remainder,
           so no further checks arrive.  The entry itself is still
           enqueued: its store already happened unlogged, and dropping it
           would be unsound. *)
        if t.counts.enqueued >= budget then begin
          t.degraded <- true;
          t.counts.budget_overflows <- t.counts.budget_overflows + 1;
          Flight.record
            (Flight.Gc_degraded
               {
                 collector = t.policy.name; cycle = t.cycles;
                 enqueued = t.counts.enqueued; budget;
               })
        end;
        t.counts.enqueued <- t.counts.enqueued + 1;
        enqueue_retrace t obj
      end
  | _ -> ()

(* Plain SATB has no record of which pre-values revoked sites failed to
   log, so its only sound repair is wholesale: discard the cycle's
   progress and restart against a fresh snapshot taken now — an object
   whose last strong reference was overwritten through a revoked site is
   no longer reachable and so no longer owed a visit. *)
let restart_mark t =
  Heap.clear_marks t.heap;
  clear_gray_and_buffers t;
  t.counts.restarts <- t.counts.restarts + 1;
  mark_roots t;
  Flight.record
    (Flight.Gc_restart
       { collector = t.policy.name; cycle = t.cycles; snapshot_size = snapshot_size t })

let on_revoke t ~objs =
  if t.phase = Marking then
    match t.policy.log with
    | Satb_buffers _ -> restart_mark t
    | Cards ->
        (* dirty the written objects' cards: the final pause's card
           re-scan re-examines their current fields *)
        List.iter (fun obj -> log_ref_store t ~obj ~pre:Value.Null) objs
    | Retrace_list _ ->
        (* a whole-object re-scan regardless of tracing state — the
           revoked sites logged nothing, so a completed scan proves
           nothing about what they overwrote; repair bypasses the budget *)
        List.iter
          (fun obj ->
            if obj >= 0 then
              let o = Heap.get t.heap obj in
              if
                (not o.dead) && (not o.born_during_mark)
                && not (Iset.mem obj t.in_retrace)
              then begin
                o.trace <- Heap.Untraced;
                t.counts.repair_enqueues <- t.counts.repair_enqueues + 1;
                enqueue_retrace t obj
              end)
          objs
    | Shades ->
        (* mark and re-gray each destination so its current fields are
           traced, even if it was already black *)
        List.iter
          (fun id ->
            if id >= 0 then begin
              let o = Heap.get t.heap id in
              if not o.dead then begin
                t.counts.rescans <- t.counts.rescans + 1;
                if not o.marked then o.origin <- Heap.origin_repair;
                o.marked <- true;
                t.gray <- Whole id :: t.gray
              end
            end)
          objs

let on_alloc t (o : Heap.obj) =
  if t.phase = Marking then begin
    o.born_during_mark <- true;
    t.counts.allocated_during <- t.counts.allocated_during + 1;
    let black =
      match t.policy.alloc with
      | Black -> true
      | White_unless_degraded -> t.pressure
    in
    if black then begin
      (* allocate black: implicitly marked, never examined (§1) *)
      o.marked <- true;
      o.origin <- Heap.origin_alloc;
      (* a degraded white-allocating policy must also dirty the newborn's
         card: stores into a fresh object are prime pre-null elision
         targets, and an elided store dirties nothing.  Every other log
         ignores a null pre-value. *)
      log_ref_store t ~obj:o.id ~pre:Value.Null
    end
  end

(* ---- draining ---------------------------------------------------------- *)

(* Scan one chunk of an object array's slots in the policy's direction,
   re-graying the remainder.  The array is [Being_traced] until the chunk
   that finishes it promotes it to [Traced]. *)
let scan_array_chunk t id ~upto =
  let o = Heap.get t.heap id in
  match t.policy.scan, o.payload with
  | Chunked { chunk; direction }, Heap.Ref_array es when not o.dead ->
      let len = Array.length es in
      let upto = min upto (len - 1) in
      let visit i =
        match es.(i) with
        | Value.Ref tgt -> mark_and_gray t ~origin:o.origin tgt
        | Value.Null | Value.Int _ -> ()
      in
      let rest =
        match direction with
        | Descending ->
            let last = max 0 (upto - chunk + 1) in
            for i = upto downto last do
              visit i
            done;
            last - 1
        | Ascending ->
            (* slots [0..upto] remain counted from the top: visit the low
               chunk and keep the high remainder *)
            let start = len - 1 - upto in
            let stop = min (len - 1) (start + chunk - 1) in
            for i = start to stop do
              visit i
            done;
            len - 1 - (stop + 1)
      in
      if rest >= 0 then t.gray <- Array_tail { id; upto = rest } :: t.gray
      else o.trace <- Heap.Traced
  | _ -> ()

let scan_object t id =
  let o = Heap.get t.heap id in
  if not o.dead then
    match t.policy.scan, o.payload with
    | Chunked _, Heap.Ref_array es ->
        o.trace <- Heap.Being_traced;
        scan_array_chunk t id ~upto:(Array.length es - 1)
    | _ ->
        List.iter (mark_and_gray t ~origin:o.origin) (Heap.out_edges o);
        o.trace <- Heap.Traced

(* Re-scan a retraced object in one step.  Runs only at safepoints, so
   the contents are rearrangement-consistent; anything first kept by it
   owes its survival to the retrace window, not the snapshot. *)
let rescan t id =
  let o = Heap.get t.heap id in
  if not o.dead then begin
    List.iter (mark_and_gray t ~origin:Heap.origin_repair) (Heap.out_edges o);
    o.trace <- Heap.Traced
  end

(* Process up to [budget] work units: one handed-over log entry per unit,
   then a gray entry; once the gray set is empty, a retrace-list entry
   (so at most one scan of an object array is in flight at a time). *)
let drain t budget =
  let processed = ref 0 in
  while
    !processed < budget && (t.gray <> [] || t.buffer <> [] || t.retrace <> [])
  do
    (match t.buffer with
    | id :: rest ->
        t.buffer <- rest;
        mark_and_gray t ~origin:Heap.origin_log id
    | [] -> ());
    match t.gray with
    | Whole id :: rest ->
        t.gray <- rest;
        incr processed;
        scan_object t id
    | Array_tail { id; upto } :: rest ->
        t.gray <- rest;
        incr processed;
        scan_array_chunk t id ~upto
    | [] -> (
        match t.retrace with
        | id :: rest ->
            t.retrace <- rest;
            t.in_retrace <- Iset.remove id t.in_retrace;
            t.counts.rescans <- t.counts.rescans + 1;
            incr processed;
            rescan t id
        | [] -> ())
  done;
  !processed

(* One increment: scan a grey stack if any remain (lazy stack scanning,
   no stop-the-world stack phase), otherwise drain, with the budget
   boosted while the pacer is degraded. *)
let step t =
  if t.phase = Marking then begin
    t.counts.increments <- t.counts.increments + 1;
    match grey_stacks t with
    | s :: _ -> scan_stack t s
    | [] ->
        let boost = if t.pressure then Gc_hooks.pressure_boost else 1 in
        ignore (drain t (t.steps_per_increment * boost))
  end

(* Pending retrace entries count as work: remark may not begin before the
   retrace fixed point.  Mutator-local buffer remnants do not — only the
   remark pause sees them. *)
let quiescent t =
  t.phase = Marking && t.gray = [] && t.buffer = [] && t.retrace = []
  && grey_stacks t = []

(* ---- the remark pause -------------------------------------------------- *)

(* One re-scan round: every root, then every marked object on a dirty
   card; [true] if it grayed anything. *)
let rescan_round t work =
  t.counts.rescan_rounds <- t.counts.rescan_rounds + 1;
  let changed = ref false in
  let regray ~origin id =
    if is_white t id then begin
      changed := true;
      mark_and_gray t ~origin id
    end
  in
  List.iter
    (fun id ->
      incr work;
      regray ~origin:Heap.origin_trace id)
    (all_roots t);
  let dirty = t.dirty in
  t.dirty <- Iset.empty;
  Iset.iter
    (fun card ->
      let hi = min ((card + 1) * card_size) t.heap.next_id in
      for id = card * card_size to hi - 1 do
        let o = Heap.get t.heap id in
        if o.marked && not o.dead then begin
          incr work;
          (* kept only because its parent's card was dirtied *)
          List.iter (regray ~origin:Heap.origin_log) (Heap.out_edges o)
        end
      done)
    dirty;
  !changed

(* the policy's own counters, as the cycle-finish event reports them *)
let log_counts t (r : cycle_report) : Flight.log_counts =
  let c = r.counts in
  match t.policy.log with
  | Satb_buffers _ -> Satb_log { logged = c.logged; restarts = c.restarts }
  | Retrace_list _ ->
      Retrace_log
        {
          logged = c.logged;
          retraces = c.rescans;
          budget_overflows = c.budget_overflows;
          degraded = r.degraded;
          repair_enqueues = c.repair_enqueues;
        }
  | Cards -> Card_log { dirty_cards = c.logged; rescan_rounds = c.rescan_rounds }
  | Shades ->
      Shade_log
        {
          del_shades = c.del_shades;
          ins_shades = c.ins_shades;
          stack_scans = c.stack_scans;
          rescans = c.rescans;
        }

(** The remark pause: scan the stacks still grey, flush buffer remnants,
    drain to the policy's fixed point, check the oracle, sweep when
    sound. *)
let finish_cycle (t : t) : cycle_report =
  assert (t.phase = Marking);
  let work = ref 0 in
  List.iter
    (fun ((_, refs) as s) ->
      work := !work + List.length refs;
      scan_stack t s)
    (grey_stacks t);
  hand_over t;
  let rec fixed_point () =
    let changed = rescan_round t work in
    work := !work + drain t max_int;
    if changed then fixed_point ()
  in
  (match t.policy.log with
  | Satb_buffers _ | Retrace_list _ -> work := !work + drain t max_int
  | Shades ->
      ignore (rescan_round t work);
      work := !work + drain t max_int
  | Cards -> fixed_point ());
  assert (t.retrace = [] && Iset.is_empty t.in_retrace);
  let owed =
    match t.policy.oracle with
    | Start_snapshot -> t.snapshot
    | End_reachability -> Oracle.reachable t.heap (all_roots t)
  in
  let violations = Oracle.snapshot_violations t.heap owed in
  let marked = ref 0 and swept = ref 0 in
  Heap.iter_live t.heap (fun o ->
      if o.marked then incr marked
      else if violations = 0 then begin
        Heap.free t.heap o;
        incr swept
      end);
  let report =
    {
      cycle = t.cycles;
      snapshot_size = Iset.cardinal t.snapshot;
      marked = !marked;
      final_pause_work = !work;
      swept = !swept;
      degraded = t.degraded;
      violations;
      counts = t.counts;
    }
  in
  Flight.record
    (Flight.Cycle_finish
       {
         collector = t.policy.name; cycle = report.cycle; marked = report.marked;
         final_pause_work = report.final_pause_work; swept = report.swept; violations;
         log = log_counts t report;
       });
  t.cycles <- t.cycles + 1;
  t.heap.gc_cycle <- t.heap.gc_cycle + 1;
  t.reports <- report :: t.reports;
  t.phase <- Idle;
  t.degraded <- false;
  Heap.clear_marks t.heap;
  report

let hooks (t : t) : Gc_hooks.t =
  {
    Gc_hooks.name = t.policy.name;
    caps = caps t.policy;
    is_marking = (fun () -> is_marking t);
    log_ref_store = (fun ~obj ~pre -> log_ref_store t ~obj ~pre);
    log_ins_store = (fun ~tid ~nv -> log_ins_store t ~tid ~nv);
    on_unlogged_store = (fun ~obj -> on_unlogged_store t ~obj);
    on_revoke = (fun ~objs -> on_revoke t ~objs);
    on_alloc = (fun o -> on_alloc t o);
    on_pressure = (fun ~degraded -> t.pressure <- degraded);
    step = (fun () -> step t);
  }
