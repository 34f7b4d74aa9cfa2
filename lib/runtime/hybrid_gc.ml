(** Concurrent marking with the Go-style {e hybrid} write barrier
    (Clements–Hudson, Go proposal 17503-eliminate-rescan): on every kept
    reference store the mutator shades the {e old} value (the Yuasa
    deletion half, as in {!Satb_gc}) and {e also} shades the {e new}
    value while the storing thread's stack has not yet been scanned this
    cycle (the Dijkstra insertion half).

    The payoff the hybrid barrier buys in Go is eliminating the final
    stop-the-world stack re-scan: once a stack has been scanned it stays
    black, because any pointer subsequently written {e from} that stack
    into the heap is either already shaded or gets shaded by the
    insertion half of some other, still-grey thread.  We model that with
    lazy per-thread stack scanning ([Grey_stacks]) —
    {!Marker.start_cycle} marks only the static roots and leaves every
    stack grey; each collector increment scans one grey stack before
    draining gray objects; {!Gc_hooks.t.log_ins_store} consults the storing
    thread's scan state.  The final pause never grows a re-scan {e loop}
    the way incremental update's does: one root pass plus a drain
    suffices.

    Elision interplay: deletion halves removed by the paper's
    pre-null/null-or-same proofs need no repair (the overwritten slot
    held null or an already-reachable value).  Insertion halves removed
    by the freshness proofs (§2.4 allocation-site facts, summary-proven
    fresh returns) are covered by three layers: objects are allocated
    black during marking; destinations of insertion-elided stores
    recorded by the interpreter are handed back through
    {!Gc_hooks.t.on_revoke} at remark time and re-scanned; and
    {!Marker.finish_cycle} re-scans every root (statics and all stacks)
    inside the final pause, which also makes static-store insertion
    elision sound.  Soundness is checked like {!Incr_gc}: at the end of
    the cycle everything reachable must be marked. *)

(* arrays are scanned whole in one gray-drain step: no tracing protocol,
   no direction contract *)
let policy : Marker.policy =
  {
    Marker.name = "hybrid";
    roots = Grey_stacks;
    oracle = End_reachability;
    alloc = Black;
    scan = Whole_object;
    log = Shades;
  }
