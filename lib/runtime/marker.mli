(** The one concurrent marker behind every collector: initial mark, bounded
    increments over a gray stack, the remark pause, the oracle check, the
    sweep and the cycle telemetry.  A collector is a {!policy} over it —
    see {!Satb_gc}, {!Incr_gc}, {!Retrace_gc} and {!Hybrid_gc} for each
    policy's soundness argument. *)

(** {1 Policies} *)

type direction = Descending | Ascending

type scan =
  | Whole_object  (** arrays are scanned in one gray-drain step *)
  | Chunked of { chunk : int; direction : direction }
      (** arrays are scanned [chunk] slots per gray entry in [direction];
          [Descending] is the contract move-down elision relies on *)

(** What the mutator's barrier records, and how the marker consumes it. *)
type log =
  | Satb_buffers of { capacity : int }
      (** pre-write values go to a mutator-local buffer, handed to the
          collector when [capacity] entries are full; drained one entry
          per work unit, remnants flushed at remark.  Revocation repair
          restarts the mark from a fresh snapshot. *)
  | Retrace_list of { capacity : int; budget : int }
      (** SATB buffers plus the §4.3 tracing-state protocol: unlogged
          stores to not-yet-traced objects queue a whole-object re-scan,
          and revocation repair queues the written objects.  Past
          [budget] enqueues the cycle is {!t.degraded}. *)
  | Cards
      (** stores dirty the written object's card; the remark re-scans
          roots and dirty cards until nothing new is grayed.  Revocation
          repair dirties the written objects' cards. *)
  | Shades
      (** deletion and insertion halves shade directly; the remark
          re-scans every root once.  Revocation repair re-grays the
          written objects. *)

type roots =
  | All_roots  (** the initial mark grays every root *)
  | Grey_stacks
      (** the initial mark grays statics only; thread stacks stay grey
          until an increment (or the remark) scans them *)

type oracle =
  | Start_snapshot  (** everything reachable when marking started *)
  | End_reachability  (** everything reachable when the remark ends *)

type alloc =
  | Black
  | White_unless_degraded
      (** white, except black plus a birth-dirtied card while the pacer
          is degraded *)

type policy = {
  name : string;  (** the collector's display name in events and dumps *)
  roots : roots;
  oracle : oracle;  (** the set that must be marked when the cycle ends *)
  alloc : alloc;  (** colour of objects allocated during marking *)
  scan : scan;
  log : log;
}

val caps : policy -> Gc_hooks.caps
(** Which elision assumptions a policy satisfies: the retrace protocol
    ([Retrace_list]), descending array scans, the insertion half
    ([Shades]). *)

(** {1 Markers} *)

type root_source = {
  all : unit -> int list;  (** every root, statics and stacks *)
  statics : unit -> int list;
  stacks : unit -> (int * int list) list;  (** (tid, that stack's refs) *)
}

val fixed_roots : (unit -> int list) -> root_source
(** Roots with no thread stacks, for hand-built heaps. *)

type phase = Idle | Marking
type gray = Whole of int | Array_tail of { id : int; upto : int }

(** Per-cycle counters, fresh at every {!start_cycle}. *)
type counts = {
  mutable increments : int;
  mutable allocated_during : int;
  mutable logged : int;
      (** barrier log entries: pre-values buffered, cards dirtied, or
          shades by either half *)
  mutable restarts : int;  (** revocation restarts ([Satb_buffers]) *)
  mutable rescans : int;
      (** whole-object re-scans: retrace-list entries, or repair-set
          objects under [Shades] *)
  mutable enqueued : int;  (** retrace enqueues (the budget's basis) *)
  mutable budget_overflows : int;
  mutable repair_enqueues : int;  (** retrace entries forced by repair *)
  mutable rescan_rounds : int;  (** remark re-scan rounds *)
  mutable del_shades : int;
  mutable ins_shades : int;
  mutable stack_scans : int;
}

type cycle_report = {
  cycle : int;
  snapshot_size : int;  (** 0 under [End_reachability] *)
  marked : int;
  final_pause_work : int;  (** objects processed inside the remark pause *)
  swept : int;
  degraded : bool;  (** the retrace budget overflowed this cycle *)
  violations : int;  (** oracle members left unmarked *)
  counts : counts;
}

module Iset : Set.S with type elt = int

type t = {
  policy : policy;
  heap : Heap.t;
  roots : root_source;
  steps_per_increment : int;
  mutable phase : phase;
  mutable gray : gray list;
  mutable counts : counts;
  snapshot : Oracle.Ids.t;
      (** the oracle's set, one buffer refilled every cycle: the
          marking-start snapshot, or under [End_reachability] the
          remark's reachable set *)
  mutable buffer : int list;  (** log entries handed to the collector *)
  mutable local_buffer : int list;  (** mutator-local, not yet handed over *)
  mutable local_count : int;
  mutable dirty : Iset.t;  (** dirty card ids *)
  mutable retrace : int list;  (** objects awaiting a re-scan *)
  mutable in_retrace : Iset.t;
  scanned : (int, unit) Hashtbl.t;  (** tids whose stack is black *)
  mutable degraded : bool;
      (** the cycle overflowed its retrace budget; the runner disables
          swap elision until it ends *)
  mutable pressure : bool;
      (** the pacer is degraded: mark budgets are boosted by
          {!Gc_hooks.pressure_boost} and [White_unless_degraded]
          allocates black *)
  mutable cycles : int;
  mutable reports : cycle_report list;  (** most recent first *)
}

val create :
  ?steps_per_increment:int -> policy -> Heap.t -> roots:root_source -> t

val is_marking : t -> bool

val start_cycle : t -> unit
(** The initial-mark pause: capture the oracle snapshot and gray the
    policy's roots. *)

val log_ref_store : t -> obj:int -> pre:Value.t -> unit
val on_alloc : t -> Heap.obj -> unit
(** Two of the {!hooks}, callable directly by hand-built-heap tests. *)

val step : t -> unit
(** One bounded increment; a no-op while idle. *)

val quiescent : t -> bool
(** Has the concurrent phase exhausted its visible work?  Mutator-local
    buffer remnants are only seen by {!finish_cycle}. *)

val finish_cycle : t -> cycle_report
(** The remark pause: scan grey stacks, flush buffer remnants, drain to
    the policy's fixed point, check the oracle, sweep when sound. *)

val hooks : t -> Gc_hooks.t
(** The marker as the mutator sees it. *)
