(** SATB concurrent marking with the optimistic tracing-state / retrace
    protocol of the paper's §4.3.

    Plain SATB ({!Satb_gc}) cannot support eliding the barriers of an
    array {e rearrangement} (the pairwise swap in a sort): between the two
    stores of a swap the displaced element lives only in mutator locals,
    so a marker that scans the array inside that window — or that already
    scanned the element's slot — misses it, and no pre-value was logged.

    This collector closes the gap by exposing per-object {e tracing
    state} ({!Heap.trace_state}: untraced / being-traced / traced,
    observable mid-scan for chunked object arrays) and maintaining a
    {e retrace list}.  Compiled code at a swap-elided store executes a
    cheap tracing-state check instead of the logging barrier
    ({!Gc_hooks.t.on_unlogged_store}): if marking is in progress and the
    written object is not yet fully traced, the object is enqueued for a
    whole-object re-scan.  Re-scans run during normal mark increments and
    must reach a fixed point (an empty retrace list) before the remark
    pause may end.

    Soundness additionally relies on two contracts with the compiler and
    scheduler, mirroring a real VM's no-safepoint regions:

    - the analysis only elides swap pairs whose two stores sit in the
      same basic block with only simple non-throwing instructions
      between them ({!Satb_core.Analysis}), and
    - the interpreter marks that window as safepoint-free, so collector
      increments (and hence re-scans and the remark pause) never observe
      a half-completed swap ({!Interp}, {!Runner}).

    Under those contracts every re-scan sees a rearrangement-consistent
    array, and a [Traced] object's current elements are all marked (an
    elided store may only re-store a value loaded from the same array,
    which a completed scan already visited).  Arrays are scanned in
    descending index order, preserving the move-down contract of
    {!Satb_gc}.  Every cycle is verified against the {!Oracle} exactly
    like plain SATB. *)

let policy ?(buffer_capacity = 32) ?(array_chunk = 8)
    ?(retrace_budget = max_int) () : Marker.policy =
  {
    Marker.name = "retrace";
    roots = All_roots;
    oracle = Start_snapshot;
    alloc = Black;
    scan = Chunked { chunk = array_chunk; direction = Descending };
    log = Retrace_list { capacity = buffer_capacity; budget = retrace_budget };
  }
