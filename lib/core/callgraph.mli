(** Static call graph over a linked program, with SCC condensation.

    Nodes are (class, method) pairs; there is an edge from a method to
    every method it names in an [Invoke] or [Spawn] instruction.  JIR has
    no virtual dispatch (see {!Jir.Types}), so the graph is exact: the
    summary engine ({!Summary}) walks its condensation bottom-up and only
    has to iterate inside recursive components. *)

type node = Jir.Types.class_name * Jir.Types.method_name

val compare_node : node -> node -> int

(** One strongly connected component of the call graph. *)
type scc = {
  members : node list;  (** sorted, for deterministic iteration *)
  recursive : bool;
      (** more than one member, or a single member that calls itself —
          summaries for these must be computed as a fixpoint *)
}

type t

val build : Jir.Program.t -> t
(** Index every method of the program and its outgoing call edges.
    Edges to unknown methods are dropped (the summarizer treats such
    calls as havoc anyway). *)

val callees : t -> node -> node list
(** Sorted, deduplicated direct callees ([Invoke] and [Spawn] targets). *)

val callers : t -> node -> node list
(** Sorted, deduplicated direct callers. *)

val sccs_bottom_up : t -> scc list
(** Tarjan condensation in reverse topological order: every callee's
    component appears before any of its callers' (modulo cycles, which
    share a component).  The order is deterministic for a given
    program. *)

