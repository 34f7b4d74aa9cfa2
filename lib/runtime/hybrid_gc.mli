(** Concurrent marking with the Go-style hybrid write barrier: Yuasa
    deletion shading on every kept store plus Dijkstra insertion shading
    while the storing thread's stack is still grey.  Stacks are scanned
    lazily, one per collector increment; the final pause re-scans all
    roots once (no re-scan loop) and checks end-reachability like
    {!Incr_gc}. *)

val policy : Marker.policy
