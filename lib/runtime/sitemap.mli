(** Process-global allocation-site interner.

    Both engines intern a site string ("Class.method\@pc") once — the
    interpreter through a per-method cache, [Jrt.Exec] at compile time —
    and stamp the resulting id on every object they allocate, so the
    allocation fast paths stay allocation-free while the heap observatory
    ({!Heapscope}) can attribute census rows, retained sizes and floating
    garbage back to program points.

    The table is process-global: ids are stable across runs within a
    process, which is what lets snapshots
    taken from different cycles of the same run diff by id. *)

val intern : string -> int
(** Intern a site name, returning its stable id.  Idempotent. *)

val runtime_site : int
(** Id of the distinguished ["<runtime>"] site, stamped on allocations
    with no program-point provenance (chaos ballast, test scaffolding). *)

val name : int -> string
(** Reverse lookup; ["<unknown>"] for out-of-range ids. *)

val count : unit -> int
(** Number of interned sites. *)
