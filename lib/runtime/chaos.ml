(** Seeded fault injection for the guard/revocation subsystem.

    A chaos {e plan} is a deterministic list of faults the runner injects
    at safepoints:

    - {e late spawn}: a second mutator appears mid-run in a program
      analyzed as single-mutator, then performs stores through
      [Single_mutator]-guarded elided sites ({!Interp.external_guarded_store}).
      With revocation enabled the spawn announcement revokes the
      dependent elisions before any damage store executes; with
      [--no-revoke] the stores go unlogged and the oracle catches the
      broken snapshot.
    - {e marker preemption}: collector increments are withheld for a
      stretch once the heap reaches a chosen index, starving the marker
      so mutator/marker races get maximal surface.
    - {e heap pressure}: an emergency remark is forced mid-cycle (the
      collector must finish from whatever state it is in).
    - {e barrier skip}: a store bypasses the barrier machinery entirely
      ({!Interp.external_unbarriered_store}) — deliberately unsound, a
      self-test that the snapshot oracle still catches genuinely missing
      barriers (checker-of-the-checker).
    - {e adversarial pacing}: the plan may override the scheduler quantum
      and collector period.

    Damage stores pick their victims by in-edge counting: a live,
    unmarked, pre-existing, non-root object held by exactly one
    reference is guaranteed to be in the marking snapshot (references
    cannot be forged, so reachable-now ∧ born-before-mark ⇒ reachable at
    mark start), and overwriting that one reference without logging it
    severs the object from both mutator and marker. *)

type fault =
  | Late_spawn of { at_instr : int; stores : int }
      (** announce a second mutator once [at_instr] instructions have
          run; perform [stores] guarded damage stores at later
          safepoints (one per safepoint, only while marking) *)
  | Preempt_marker of { at_alloc : int; skips : int }
      (** once the heap has allocated [at_alloc] objects, withhold the
          next [skips] collector increments *)
  | Heap_pressure of { at_alloc : int }
      (** once the heap reaches [at_alloc] allocations, force an
          emergency remark of the in-flight cycle *)
  | Barrier_skip of { at_instr : int; victims : int }
      (** from [at_instr] on, overwrite the sole reference to [victims]
          snapshot objects with no barrier at all *)
  | Class_load of { at_instr : int }
      (** announce a class load once [at_instr] instructions have run:
          the closed-world assumption behind the interprocedural callee
          summaries fails, and summary-dependent elisions revoke *)
  | Alloc_spike of { at_instr : int; count : int }
      (** once [at_instr] instructions have run, allocate [count] ballast
          objects in one burst ({!Interp.external_alloc}) — a sudden
          allocation spike the pacer must absorb (early trigger,
          degraded mode, or a clean hard-limit abort) *)
  | Mem_pressure of { at_alloc : int; per_safepoint : int; total : int }
      (** once the heap has allocated [at_alloc] objects, allocate
          [per_safepoint] ballast objects at every safepoint until
          [total] have been injected — a sustained memory-pressure ramp
          that holds the pacer near its limits *)

type plan = {
  seed : int;
  faults : fault list;
  quantum : int option;  (** adversarial scheduler pacing override *)
  gc_period : int option;  (** collector-period override *)
}

type stats = {
  spawns : int;  (** second-mutator announcements *)
  damage_stores : int;  (** guarded stores performed by the late spawn *)
  skipped_barriers : int;  (** barrier-skip stores performed *)
  preempted_increments : int;  (** collector increments withheld *)
  pressure_remarks : int;  (** emergency remarks forced *)
  class_loads : int;  (** class-load announcements *)
  spike_allocs : int;  (** ballast objects injected by allocation spikes *)
  ramp_allocs : int;  (** ballast objects injected by pressure ramps *)
}

(** What the runner must do at this safepoint. *)
type action = { defer_increment : bool; force_remark : bool }

let no_action = { defer_increment = false; force_remark = false }

(* armed (mutable) per-fault state *)
type armed =
  | Aspawn of { at_instr : int; mutable stores_left : int; mutable announced : bool }
  | Apreempt of { at_alloc : int; mutable skips_left : int }
  | Apressure of { at_alloc : int; mutable fired : bool }
  | Askip of { at_instr : int; mutable victims_left : int }
  | Aload of { at_instr : int; mutable loaded : bool }
  | Aspike of { at_instr : int; count : int; mutable fired : bool }
  | Aramp of { at_alloc : int; per_safepoint : int; mutable left : int }

type t = {
  plan : plan;
  armed : armed list;
  rand : int -> int;
  mutable spawns : int;
  mutable damage_stores : int;
  mutable skipped_barriers : int;
  mutable preempted_increments : int;
  mutable pressure_remarks : int;
  mutable class_loads : int;
  mutable spike_allocs : int;
  mutable ramp_allocs : int;
}

(** Same deterministic LCG as {!Runner}'s quantum jitter. *)
let lcg seed =
  let state = ref (if seed = 0 then 1 else seed) in
  fun bound ->
    state := (!state * 1103515245) + 12345;
    let v = (!state lsr 16) land 0x3FFF in
    1 + (v mod bound)

let create (plan : plan) : t =
  {
    plan;
    armed =
      List.map
        (function
          | Late_spawn { at_instr; stores } ->
              Aspawn { at_instr; stores_left = stores; announced = false }
          | Preempt_marker { at_alloc; skips } ->
              Apreempt { at_alloc; skips_left = skips }
          | Heap_pressure { at_alloc } -> Apressure { at_alloc; fired = false }
          | Barrier_skip { at_instr; victims } ->
              Askip { at_instr; victims_left = victims }
          | Class_load { at_instr } -> Aload { at_instr; loaded = false }
          | Alloc_spike { at_instr; count } ->
              Aspike { at_instr; count; fired = false }
          | Mem_pressure { at_alloc; per_safepoint; total } ->
              Aramp { at_alloc; per_safepoint; left = total })
        plan.faults;
    rand = lcg (plan.seed lxor 0x5bd1e995);
    spawns = 0;
    damage_stores = 0;
    skipped_barriers = 0;
    preempted_increments = 0;
    pressure_remarks = 0;
    class_loads = 0;
    spike_allocs = 0;
    ramp_allocs = 0;
  }

(** A deterministic benign plan for [--chaos <seed>]: late spawn plus
    preemption, pressure, and pacing in a seed-dependent mix.  Never
    includes a barrier-skip fault — those are only built explicitly by
    the self-tests, since they are unsound by design. *)
let of_seed (seed : int) : plan =
  let r = lcg seed in
  let faults =
    [ Late_spawn { at_instr = 500 + r 4000; stores = 1 + r 3 } ]
    @ (if r 4 > 1 then
         [ Preempt_marker { at_alloc = 32 + r 512; skips = 2 + r 12 } ]
       else [])
    @ (if r 4 > 1 then [ Heap_pressure { at_alloc = 64 + r 768 } ] else [])
    @ (if r 4 > 1 then [ Class_load { at_instr = 300 + r 3000 } ] else [])
    @ if r 4 = 1 then
        [ Alloc_spike { at_instr = 400 + r 3000; count = 8 + r 56 } ]
      else []
  in
  {
    seed;
    faults;
    quantum = (if r 3 = 1 then Some (5 + r 60) else None);
    gc_period = (if r 3 = 1 then Some (4 + r 48) else None);
  }

let plan (t : t) : plan = t.plan

let stats (t : t) : stats =
  {
    spawns = t.spawns;
    damage_stores = t.damage_stores;
    skipped_barriers = t.skipped_barriers;
    preempted_increments = t.preempted_increments;
    pressure_remarks = t.pressure_remarks;
    class_loads = t.class_loads;
    spike_allocs = t.spike_allocs;
    ramp_allocs = t.ramp_allocs;
  }

(* ---- victim selection -------------------------------------------------- *)

module Iset = Set.Make (Int)

(** Find [(owner, slot)] pairs whose overwrite-with-null severs the sole
    reference to a live, unmarked, pre-existing, non-root object — a
    guaranteed snapshot casualty if the store goes unlogged. *)
let find_victims (m : Interp.t) : (int * int) list =
  let heap = m.Interp.heap in
  let roots = Interp.roots m in
  let root_set = List.fold_left (fun s id -> Iset.add id s) Iset.empty roots in
  let reach = Oracle.reachable heap roots in
  (* in-edge count and (owner, slot) of the last seen in-edge, among
     reachable objects only *)
  let in_edges : (int, int * (int * int)) Hashtbl.t = Hashtbl.create 256 in
  Oracle.Ids.iter
    (fun id ->
      let o = Heap.get heap id in
      if not o.Heap.dead then
        let slots =
          match o.Heap.payload with
          | Heap.Fields fs -> Some fs
          | Heap.Ref_array es -> Some es
          | Heap.Int_array _ -> None
        in
        match slots with
        | None -> ()
        | Some slots ->
            Array.iteri
              (fun i v ->
                match v with
                | Value.Ref tgt ->
                    let n, _ =
                      Option.value
                        (Hashtbl.find_opt in_edges tgt)
                        ~default:(0, (0, 0))
                    in
                    Hashtbl.replace in_edges tgt (n + 1, (id, i))
                | Value.Null | Value.Int _ -> ())
              slots)
    reach;
  Hashtbl.fold
    (fun tgt (n, (owner, slot)) acc ->
      if n = 1 && not (Iset.mem tgt root_set) then
        let x = Heap.get heap tgt in
        if
          (not x.Heap.dead) && (not x.Heap.marked)
          && not x.Heap.born_during_mark
        then (owner, slot) :: acc
        else acc
      else acc)
    in_edges []

(** Sever one victim's sole in-edge via [store].  Returns [true] if a
    victim existed. *)
let damage_one (t : t) (m : Interp.t)
    ~(store : obj:int -> idx:int -> v:Value.t -> unit) : bool =
  match find_victims m with
  | [] -> false
  | victims ->
      (* deterministic but seed-dependent choice *)
      let n = List.length victims in
      let owner, slot = List.nth victims (t.rand n - 1) in
      store ~obj:owner ~idx:slot ~v:Value.Null;
      true

(* ---- the safepoint hook ------------------------------------------------ *)

(* Each injected fault bumps its [stats] field and records a chaos.fault
   event naming the fault kind and where it fired, so a trace or a
   timeline shows what was injected when. *)
let fault_event ?count (fault : string) (at : Flight.fault_at) : unit =
  Flight.record (Flight.Chaos_fault { fault; at; count })

let at_safepoint (t : t) (m : Interp.t) : action =
  let marking = m.Interp.gc.Gc_hooks.is_marking () in
  let allocated = m.Interp.heap.Heap.total_allocated in
  let instr = m.Interp.instr_count in
  let defer = ref false in
  let remark = ref false in
  List.iter
    (function
      | Aspawn a ->
          if (not a.announced) && instr >= a.at_instr then begin
            (* the second mutator exists from here on; the runner applies
               the resulting revocation before this safepoint ends, so
               the damage stores below (later safepoints) meet patched
               sites when revocation is enabled *)
            a.announced <- true;
            t.spawns <- t.spawns + 1;
            fault_event "late-spawn" (At_instr instr);
            Interp.note_second_mutator m
          end
          else if a.announced && a.stores_left > 0 && marking then
            if
              damage_one t m ~store:(fun ~obj ~idx ~v ->
                  Interp.external_guarded_store m ~obj ~idx ~v)
            then begin
              a.stores_left <- a.stores_left - 1;
              t.damage_stores <- t.damage_stores + 1;
              fault_event "damage-store" (At_instr instr)
            end
      | Apreempt a ->
          if allocated >= a.at_alloc && a.skips_left > 0 && marking then begin
            a.skips_left <- a.skips_left - 1;
            t.preempted_increments <- t.preempted_increments + 1;
            fault_event "preempt-marker" (At_alloc allocated);
            defer := true
          end
      | Apressure a ->
          if (not a.fired) && allocated >= a.at_alloc && marking then begin
            a.fired <- true;
            t.pressure_remarks <- t.pressure_remarks + 1;
            fault_event "heap-pressure" (At_alloc allocated);
            remark := true
          end
      | Askip a ->
          if a.victims_left > 0 && instr >= a.at_instr && marking then
            if
              damage_one t m ~store:(fun ~obj ~idx ~v ->
                  Interp.external_unbarriered_store m ~obj ~idx ~v)
            then begin
              a.victims_left <- a.victims_left - 1;
              t.skipped_barriers <- t.skipped_barriers + 1;
              fault_event "barrier-skip" (At_instr instr)
            end
      | Aload a ->
          if (not a.loaded) && instr >= a.at_instr then begin
            a.loaded <- true;
            t.class_loads <- t.class_loads + 1;
            fault_event "class-load" (At_instr instr);
            Interp.note_class_load m
          end
      | Aspike a ->
          if (not a.fired) && instr >= a.at_instr then begin
            a.fired <- true;
            t.spike_allocs <- t.spike_allocs + a.count;
            fault_event "alloc-spike" (At_instr instr) ~count:a.count;
            (* may raise Pacer.Hard_limit — propagated to the runner,
               which must abort cleanly, exactly as mutator pressure
               would *)
            Interp.external_alloc m ~count:a.count
          end
      | Aramp a ->
          if a.left > 0 && allocated >= a.at_alloc then begin
            let n = min a.per_safepoint a.left in
            a.left <- a.left - n;
            t.ramp_allocs <- t.ramp_allocs + n;
            fault_event "mem-pressure" (At_alloc allocated) ~count:n;
            Interp.external_alloc m ~count:n
          end)
    t.armed;
  { defer_increment = !defer; force_remark = !remark }
