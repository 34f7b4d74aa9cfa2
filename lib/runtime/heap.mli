(** The simulated heap: a growable store of objects and arrays with
    per-object mark state.  Reference fields and object-array elements
    start null, int fields/elements zero — the allocator-zeroing guarantee
    the pre-null analysis relies on. *)

type payload =
  | Fields of Value.t array  (** instance fields, declaration order *)
  | Ref_array of Value.t array
  | Int_array of int array

(** Per-object tracing progress within the current marking cycle, used by
    the retrace protocol ({!Retrace_gc}); [Being_traced] is observable for
    object arrays whose chunked scan spans collector increments. *)
type trace_state = Untraced | Being_traced | Traced

type obj = {
  id : int;
  cls : Jir.Types.class_name;  (** class, or element class for arrays *)
  site : int;  (** interned allocation site ({!Sitemap}); 0 = no provenance *)
  birth_cycle : int;  (** heap [gc_cycle] at allocation; age axis *)
  payload : payload;
  mutable marked : bool;
  mutable born_during_mark : bool;
  mutable trace : trace_state;
  mutable origin : int;
      (** why the most recent cycle marked this object (an [origin_*]
          constant below).  Deliberately {e not} reset by {!clear_marks}:
          the float accounting reads survivors' origins after the sweep,
          and the next cycle overwrites the field when it first marks the
          object. *)
  mutable dead : bool;  (** reclaimed by a sweep *)
}

(** Mark origins, stamped by the collectors on first marking and read by
    the float accounting after the sweep: [origin_trace] — reached from a
    root by ordinary tracing, [origin_log] — kept by a barrier log entry
    (SATB buffer, dirty card, deletion/insertion shade), [origin_alloc] —
    allocate-black, [origin_repair] — kept by a revocation repair or a
    retrace re-scan.  Children discovered while draining inherit the
    parent's origin: an object is "floated by the snapshot" even if it is
    three hops below the logged pre-value. *)

val origin_none : int

val origin_trace : int
val origin_log : int
val origin_alloc : int
val origin_repair : int

type t = {
  mutable objects : obj array;
  mutable next_id : int;
  mutable live_count : int;
  mutable total_allocated : int;
  mutable live_units : int;
      (** units currently held by live objects — the pacer's notion of
          heap size (its goals and limits are expressed in units) *)
  mutable allocated_units : int;  (** units ever allocated *)
  mutable gc_cycle : int;
      (** completed GC cycles, bumped by each collector's finish; the
          axis object ages ([gc_cycle - birth_cycle]) are measured on *)
}

val create : unit -> t

val size_units : obj -> int
(** Heap units an object occupies: a two-unit header plus one per field
    or element. *)

val alloc_object : ?site:int -> t -> Jir.Types.class_name -> n_fields:int -> obj
val alloc_ref_array : ?site:int -> t -> Jir.Types.class_name -> len:int -> obj
val alloc_int_array : ?site:int -> t -> len:int -> obj
val get : t -> int -> obj

val out_edges : obj -> int list
(** Reference values directly held by the object. *)

val iter_edges : (int -> unit) -> obj -> unit
(** [iter_edges f o] calls [f] on each reference [o] holds, in slot
    order (the order {!out_edges} lists them), allocating nothing. *)

val iter_live : t -> (obj -> unit) -> unit
val clear_marks : t -> unit
val free : t -> obj -> unit
