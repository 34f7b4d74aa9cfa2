(** Synchronous reachability oracle.

    The simulator can stop the world for free, so we compute exact
    reachable sets to (a) capture the logical snapshot when SATB marking
    starts and (b) verify collector invariants at the end of each cycle.
    A production collector obviously has no such oracle — it exists purely
    to {e check} the algorithms.

    A set is a bitmap over heap ids with its own walk stack, both reused
    when the set is refilled, so a marker's per-cycle snapshot allocates
    nothing once its buffers have grown to the heap. *)

module Ids = struct
  type t = {
    mutable bits : Bytes.t;  (** bit [id] set = member *)
    mutable count : int;
    mutable stack : int array;  (** the walk's explicit stack *)
  }

  let create () = { bits = Bytes.empty; count = 0; stack = [||] }
  let cardinal s = s.count

  let mem id s =
    id >= 0
    && id lsr 3 < Bytes.length s.bits
    && Char.code (Bytes.unsafe_get s.bits (id lsr 3)) land (1 lsl (id land 7))
       <> 0

  let add id s =
    let b = id lsr 3 in
    Bytes.unsafe_set s.bits b
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get s.bits b) lor (1 lsl (id land 7))));
    s.count <- s.count + 1

  (* empty the set, sized for ids below [capacity] *)
  let reset s ~capacity =
    let nbytes = (capacity + 7) lsr 3 in
    if Bytes.length s.bits < nbytes then
      s.bits <- Bytes.make (max nbytes (2 * Bytes.length s.bits)) '\000'
    else Bytes.fill s.bits 0 (Bytes.length s.bits) '\000';
    if Array.length s.stack < capacity then
      s.stack <- Array.make (max capacity (2 * Array.length s.stack)) 0;
    s.count <- 0

  (* ascending, like [Set.Make (Int)] *)
  let fold f s acc =
    let acc = ref acc in
    for b = 0 to Bytes.length s.bits - 1 do
      let byte = Char.code (Bytes.unsafe_get s.bits b) in
      if byte <> 0 then
        for i = 0 to 7 do
          if byte land (1 lsl i) <> 0 then acc := f ((b lsl 3) + i) !acc
        done
    done;
    !acc

  let iter f s = fold (fun id () -> f id) s ()
end

(** Refill [s] with the objects reachable from the given root ids.
    Ids are added when first seen and walked from an explicit stack,
    reading payload arrays in place. *)
let reachable_into (s : Ids.t) (heap : Heap.t) (roots : int list) : unit =
  Ids.reset s ~capacity:heap.Heap.next_id;
  let sp = ref 0 in
  let visit id =
    if not (Ids.mem id s) then begin
      ignore (Heap.get heap id);
      Ids.add id s;
      s.stack.(!sp) <- id;
      incr sp
    end
  in
  List.iter visit roots;
  while !sp > 0 do
    decr sp;
    match heap.Heap.objects.(s.stack.(!sp)).Heap.payload with
    | Heap.Fields vs | Heap.Ref_array vs ->
        for i = 0 to Array.length vs - 1 do
          match vs.(i) with
          | Value.Ref id -> visit id
          | Value.Null | Value.Int _ -> ()
        done
    | Heap.Int_array _ -> ()
  done

(** Objects reachable from the given root ids, in a fresh set. *)
let reachable (heap : Heap.t) (roots : int list) : Ids.t =
  let s = Ids.create () in
  reachable_into s heap roots;
  s

(** Snapshot-invariant check shared by the SATB-family collectors: members
    of the marking-start snapshot that ended the cycle dead or unmarked.
    Nonzero means a barrier (or a tracing-state check) that was actually
    needed had been removed. *)
let snapshot_violations (heap : Heap.t) (snapshot : Ids.t) : int =
  Ids.fold
    (fun id n ->
      let o = Heap.get heap id in
      if o.Heap.dead || not o.Heap.marked then n + 1 else n)
    snapshot 0
