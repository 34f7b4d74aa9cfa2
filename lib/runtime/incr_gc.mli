(** Incremental-update ("mostly parallel") concurrent marking with a
    card-marking write barrier — the Boehm-Demers-Shenker-style baseline
    the paper contrasts SATB against (§1).  The final stop-the-world
    pause must rescan roots and dirty cards and trace everything newly
    reachable — including every object allocated during the cycle — which
    is why its pauses dwarf SATB remark pauses (experiment E5). *)

val policy : Marker.policy
