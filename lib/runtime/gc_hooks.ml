(** The mutator/collector interface.

    The interpreter calls these hooks; {!Marker.hooks} implements them
    for every collector policy ({!Satb_gc}, {!Incr_gc}, {!Retrace_gc},
    {!Hybrid_gc}).  [log_ref_store] is the body of the write barrier: it
    runs only for stores whose barrier was {e not} eliminated by the
    analysis — SATB logs the pre-write value, incremental-update
    card-marking dirties the target's card, the hybrid barrier shades
    the overwritten value. *)

(** Mark-budget multiplier every collector applies while the pacer is
    degraded; one shared constant so the four collectors degrade
    identically. *)
let pressure_boost = 4

type caps = {
  retrace_protocol : bool;
      (** the collector honours [on_unlogged_store] (tracing-state
          protocol), so swap-elided stores are sound under it *)
  descending_scan : bool;
      (** object arrays are scanned from the highest index downwards, the
          direction contract move-down elision depends on *)
  insertion_half : bool;
      (** the collector consumes a Dijkstra insertion half
          ([log_ins_store]) and re-scans the repair set handed to
          [on_revoke] at remark time, so insertion-half elision is sound
          under it *)
}

type t = {
  name : string;
  caps : caps;
  is_marking : unit -> bool;
  log_ref_store : obj:int -> pre:Value.t -> unit;
  log_ins_store : tid:int -> nv:Value.t -> unit;
      (** Dijkstra insertion half of a hybrid barrier: shade the value
          being stored while thread [tid]'s stack is still grey.  No-op
          for the pure-deletion collectors. *)
  on_unlogged_store : obj:int -> unit;
      (** tracing-state check compiled at swap-elided sites: the analysis
          removed the logging barrier but the retrace protocol
          ({!Retrace_gc}) still needs to know the object was mutated while
          its scan may be in flight.  Collectors without the protocol
          ignore it — which is exactly what the negative soundness tests
          demonstrate to be unsafe. *)
  on_revoke : objs:int list -> unit;
      (** snapshot repair after elision revocation: [objs] are the ids of
          every object written through a now-revoked site during the
          current marking cycle.  A retrace collector enqueues them for
          re-scan; plain SATB restarts the mark from a fresh snapshot;
          collectors that never rely on elision may ignore it. *)
  on_alloc : Heap.obj -> unit;
  on_pressure : degraded:bool -> unit;
      (** the pacer entered ([true]) or left ([false]) degraded mode:
          boost the per-increment mark budget, and collectors that
          allocate white (incremental update) must force allocate-black
          for the duration *)
  step : unit -> unit;  (** perform a bounded increment of collector work *)
}

(** No collector: barriers are pure instrumentation.  Capabilities are
    vacuously [true] — with no marking there is nothing to violate. *)
let none : t =
  {
    name = "none";
    caps = { retrace_protocol = true; descending_scan = true; insertion_half = true };
    is_marking = (fun () -> false);
    log_ref_store = (fun ~obj:_ ~pre:_ -> ());
    log_ins_store = (fun ~tid:_ ~nv:_ -> ());
    on_unlogged_store = (fun ~obj:_ -> ());
    on_revoke = (fun ~objs:_ -> ());
    on_alloc = (fun _ -> ());
    on_pressure = (fun ~degraded:_ -> ());
    step = (fun () -> ());
  }
