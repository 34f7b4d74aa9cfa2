(** Snapshot-at-the-beginning (SATB) concurrent marking (Yuasa-style, as
    in the Garbage-First collector the paper instruments).

    The collector marks the objects reachable in a logical snapshot taken
    when marking starts; the mutator's barrier logs pre-write values into
    mutator-local buffers handed over when full; objects allocated during
    marking are implicitly marked ("allocated black").  The remark pause
    only drains leftover buffers — the short-pause advantage measured in
    experiment E5.

    Object arrays are scanned incrementally (bounded chunks) and, by
    default, in {e descending} index order — the contract the §4.3
    move-down elision depends on.

    Every cycle is verified against the {!Oracle}: a wrongly removed
    barrier that unlinked an unvisited snapshot object surfaces as a
    violation. *)

val policy :
  ?buffer_capacity:int ->
  ?array_chunk:int ->
  ?direction:Marker.direction ->
  unit ->
  Marker.policy
(** [buffer_capacity] (default 32) is the entries a mutator-local log
    buffer holds before it is handed to the collector; [array_chunk]
    (default 8) the array slots visited per gray entry; [direction]
    (default [Descending]) the array scan order. *)
