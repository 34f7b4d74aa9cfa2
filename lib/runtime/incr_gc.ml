(** Incremental-update ("mostly-parallel") concurrent marking with a
    card-marking write barrier — the Boehm–Demers–Shenker style baseline
    the paper contrasts SATB against (§1).

    The mutator's barrier merely dirties the card of the object whose field
    was written (≈2 instructions).  The collector traces concurrently from
    a root snapshot; the final stop-the-world pause must then (a) rescan
    the roots, (b) rescan every object on a dirty card, and (c) trace
    everything newly discovered — which includes every object allocated
    during the cycle that became reachable, since incremental update gets
    no "allocated black" guarantee.  That rescan loop is why
    incremental-update final pauses are often an order of magnitude longer
    than SATB remark pauses (§1, §4.5); the measured pause work feeds the
    E5 experiment. *)

(* allocated white: incremental update must trace new objects — except
   in degraded mode, which allocates black with a birth-dirtied card so
   elided stores into the newborn are still re-scanned at the pause *)
let policy : Marker.policy =
  {
    Marker.name = "incremental-update";
    roots = All_roots;
    oracle = End_reachability;
    alloc = White_unless_degraded;
    scan = Whole_object;
    log = Cards;
  }
