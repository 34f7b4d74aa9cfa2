(** The simulated heap: a growable store of objects and arrays with
    per-object mark state for the concurrent collectors.

    Objects' reference fields and object-array elements start null and int
    fields/elements start zero, exactly the allocator-zeroing guarantee the
    paper's pre-null analysis relies on. *)

type payload =
  | Fields of Value.t array  (** instance fields, in declaration order *)
  | Ref_array of Value.t array
  | Int_array of int array

(** Per-object tracing progress, maintained by collectors that expose it
    to the mutator (the retrace protocol of {!Retrace_gc}).  [Being_traced]
    is observable for object arrays, whose scan spans several collector
    increments; plain objects go straight to [Traced]. *)
type trace_state = Untraced | Being_traced | Traced

type obj = {
  id : int;
  cls : Jir.Types.class_name;  (** class, or element class for arrays *)
  site : int;  (** interned allocation site ({!Sitemap}) *)
  birth_cycle : int;  (** value of [gc_cycle] when allocated *)
  payload : payload;
  mutable marked : bool;
  mutable born_during_mark : bool;
      (** allocated while marking was in progress (relevant to both
          collectors, with opposite consequences) *)
  mutable trace : trace_state;
      (** scan progress within the current marking cycle *)
  mutable origin : int;
      (** why the most recent cycle marked this object (an [origin_*]
          constant); survives [clear_marks] so the float accounting can
          read it after the sweep — the next cycle overwrites it *)
  mutable dead : bool;  (** reclaimed by a sweep *)
}

(* Mark origins.  Kept as plain ints (not a variant) so collectors can
   stamp them on the mark fast path without boxing or a match. *)
let origin_none = 0
let origin_trace = 1
let origin_log = 2
let origin_alloc = 3
let origin_repair = 4

type t = {
  mutable objects : obj array;  (** slot i holds object with id i (or dummy) *)
  mutable next_id : int;
  mutable live_count : int;
  mutable total_allocated : int;
  mutable live_units : int;
  mutable allocated_units : int;
  mutable gc_cycle : int;  (** completed GC cycles; object age axis *)
}

(** Size of an object in heap units: a two-unit header plus one unit per
    field or element.  The pacer's heap-goal, soft and hard limits are
    all expressed in these units, so "bytes" of pressure scale with the
    payloads a workload allocates rather than with object count alone. *)
let size_units (o : obj) : int =
  2
  +
  match o.payload with
  | Fields vs | Ref_array vs -> Array.length vs
  | Int_array es -> Array.length es

let dummy =
  {
    id = -1;
    cls = "";
    site = 0;
    birth_cycle = 0;
    payload = Fields [||];
    marked = false;
    born_during_mark = false;
    trace = Untraced;
    origin = origin_none;
    dead = true;
  }

let create () =
  {
    objects = Array.make 256 dummy;
    next_id = 0;
    live_count = 0;
    total_allocated = 0;
    live_units = 0;
    allocated_units = 0;
    gc_cycle = 0;
  }

let grow h =
  if h.next_id >= Array.length h.objects then begin
    let bigger = Array.make (2 * Array.length h.objects) dummy in
    Array.blit h.objects 0 bigger 0 (Array.length h.objects);
    h.objects <- bigger
  end

let alloc ?(site = 0) (h : t) (cls : Jir.Types.class_name) (payload : payload)
    : obj =
  grow h;
  let o =
    {
      id = h.next_id;
      cls;
      site;
      birth_cycle = h.gc_cycle;
      payload;
      marked = false;
      born_during_mark = false;
      trace = Untraced;
      origin = origin_none;
      dead = false;
    }
  in
  h.objects.(h.next_id) <- o;
  h.next_id <- h.next_id + 1;
  h.live_count <- h.live_count + 1;
  h.total_allocated <- h.total_allocated + 1;
  let u = size_units o in
  h.live_units <- h.live_units + u;
  h.allocated_units <- h.allocated_units + u;
  o

let alloc_object ?site h cls ~n_fields =
  alloc ?site h cls (Fields (Array.make n_fields Value.Null))

let alloc_ref_array ?site h cls ~len =
  alloc ?site h cls (Ref_array (Array.make len Value.Null))

let alloc_int_array ?site h ~len =
  alloc ?site h "int[]" (Int_array (Array.make len 0))

let get (h : t) (id : int) : obj =
  if id < 0 || id >= h.next_id then invalid_arg "Heap.get: bad id";
  h.objects.(id)

(** Reference values directly held by an object (outgoing edges). *)
let out_edges (o : obj) : int list =
  match o.payload with
  | Fields vs | Ref_array vs ->
      Array.to_list vs
      |> List.filter_map (function Value.Ref id -> Some id | _ -> None)
  | Int_array _ -> []

(** [f] on each reference the object holds, in slot order — the order
    {!out_edges} lists them — without building the list. *)
let iter_edges (f : int -> unit) (o : obj) : unit =
  match o.payload with
  | Fields vs | Ref_array vs ->
      for i = 0 to Array.length vs - 1 do
        match vs.(i) with Value.Ref id -> f id | Value.Null | Value.Int _ -> ()
      done
  | Int_array _ -> ()

let iter_live (h : t) (f : obj -> unit) =
  for id = 0 to h.next_id - 1 do
    let o = h.objects.(id) in
    if not o.dead then f o
  done

let clear_marks (h : t) =
  iter_live h (fun o ->
      o.marked <- false;
      o.born_during_mark <- false;
      o.trace <- Untraced)

(** Reclaim an object (sweep); accessing it afterwards is a bug that we
    make loud by poisoning its payload. *)
let free (h : t) (o : obj) =
  if not o.dead then begin
    o.dead <- true;
    h.live_count <- h.live_count - 1;
    h.live_units <- h.live_units - size_units o
  end
