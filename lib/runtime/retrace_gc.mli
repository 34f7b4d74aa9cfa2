(** SATB concurrent marking with the optimistic tracing-state / retrace
    protocol (§4.3 rearrangement support).

    Extends plain SATB ({!Satb_gc}) with per-object tracing state
    ({!Heap.trace_state}) and a {e retrace list}: compiled code at a
    swap-elided store runs a cheap tracing-state check instead of the
    logging barrier ({!Gc_hooks.t.on_unlogged_store}); if the written
    object is not yet fully traced it is enqueued for a whole-object
    re-scan.  Remark may not end before the retrace list reaches a fixed
    point.  Sound only together with the compiler's same-block swap-pair
    contract and the interpreter's safepoint-free swap windows (see the
    implementation's header comment for the full argument).

    Arrays are scanned in bounded chunks, descending — the same contract
    move-down elision relies on.  Every cycle is verified against the
    {!Oracle}. *)

val policy :
  ?buffer_capacity:int ->
  ?array_chunk:int ->
  ?retrace_budget:int ->
  unit ->
  Marker.policy
(** [retrace_budget] bounds retrace-list enqueues per cycle (termination
    watchdog); past it the cycle degrades — swap elision is disabled for
    the remainder and stores fall back to logging.  Default unbounded.
    The other parameters are {!Satb_gc.policy}'s. *)
