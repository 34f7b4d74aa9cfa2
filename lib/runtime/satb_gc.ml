(** Snapshot-at-the-beginning (SATB) concurrent marking (Yuasa-style, as
    used by the Garbage-First collector the paper instruments).

    The collector marks the objects reachable in a logical snapshot of the
    object graph taken when marking starts.  The mutator's write barrier
    logs the {e pre-write} value of every overwritten reference field, so
    that subgraphs unlinked during marking are still traced.  Objects
    allocated during marking are implicitly marked ("allocated black") and
    need never be examined — the key SATB advantage (§1).

    The final "remark pause" only has to drain the remaining SATB buffers,
    which is why SATB pauses are so much shorter than incremental-update
    pauses (compared in {!Incr_gc}); the pause's work is measured in
    {!Marker.cycle_report.final_pause_work}.

    Object arrays are scanned {e incrementally} (in bounded chunks) and in
    {e descending} index order.  The direction is a documented contract
    with the compiler: the §4.3 move-down elision (see
    {!Satb_core.Analysis}) is only sound when the collector's array scan
    direction agrees with the direction of element movement, and delete
    loops move elements toward lower indices.

    Every cycle is checked against the {!Oracle}: a missing barrier that
    actually unlinked an unvisited snapshot object shows up as an invariant
    violation, so running workloads under this collector end-to-end tests
    the {e soundness} of the barrier-removal analysis. *)

(* [Ascending] exists only to let the tests demonstrate that the direction
   contract matters *)
let policy ?(buffer_capacity = 32) ?(array_chunk = 8)
    ?(direction = Marker.Descending) () : Marker.policy =
  {
    Marker.name = "satb";
    roots = All_roots;
    oracle = Start_snapshot;
    alloc = Black;
    scan = Chunked { chunk = array_chunk; direction };
    log = Satb_buffers { capacity = buffer_capacity };
  }
