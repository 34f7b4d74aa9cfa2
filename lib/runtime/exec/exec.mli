(** Direct-threaded execution engine: verified jir methods compile into
    arrays of OCaml closures with preresolved field offsets and static
    slots, and every reference store calls the interpreter's one barrier
    body ({!Interp.store_barrier}) with its site's cached record, so a
    revocation takes effect through the record alone.

    Compiled code is machine-free and shared by every run of one
    program content; each run binds it to its machine with one cell per
    store site (the site's {!Interp.site_stats}, materialized at its
    first execution) and one slot per static, so runs of one program
    never share mutable state.

    The engine executes over the interpreter's own substrate (heap,
    statics, counters, site stats, GC hooks, pacer), so collectors,
    chaos faults and telemetry behave identically under either engine
    and the step-accurate {!Interp} serves as a differential oracle. *)

type t
(** One run's binding of the compiled code to a machine. *)

type code
(** Compiled code: built once per distinct program content and shared
    by every run of an equal program. *)

val create : Interp.t -> t
(** Bind a machine; installs {!Interp.t.stack_roots_override} so root
    enumeration follows the engine's live stacks in the interpreter's
    exact visit order.  The first [create] for a program content
    compiles every method reachable from the machine's threads (callees
    and spawn targets linked eagerly) into the shared code; later ones
    find it compiled and only bind, in O(store sites + statics).  A
    thread later adopted in a method not yet compiled compiles it
    then. *)

val slice : t -> Interp.thread -> fuel:int -> int
(** Run up to [fuel] instructions of the given thread (adopting it into
    the engine on first contact — including threads spawned by chaos
    faults mid-run) and return how many executed.  Counter-for-counter
    equivalent to [fuel] iterations of {!Interp.step}.  Propagates
    {!Interp.Runtime_bug}, {!Interp.Out_of_steps} and
    {!Pacer.Hard_limit} like the interpreter; in-program exceptions
    unwind to handlers internally.  Allocates nothing of its own. *)

val compiled_methods : t -> int
(** Number of methods compiled into this run's code (observability and
    tests). *)

val inflight : t -> int
(** Instructions charged by the slice in flight but not yet flushed to
    [instr_count] (0 between slices).  The runner's flight-recorder step
    source adds it, so mid-slice events — including barrier work inside
    fused blocks, whose store sub-ops publish their consumed prefix —
    carry exactly the step the interpreter would have recorded. *)

val code : t -> code
(** The shared code this run is bound to: runs of equal programs get
    physically the same one. *)

val cached_programs : unit -> int
(** Programs the code cache currently holds an entry for.  An entry is
    weak in its program: it goes once the program is collected. *)
