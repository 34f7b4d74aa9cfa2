(** Synchronous reachability oracle: exact reachable sets used to capture
    the logical snapshot when SATB marking starts and to verify collector
    invariants.  Exists purely to {e check} the algorithms. *)

(** Sets of heap ids: a bitmap over the ids below the heap's [next_id]
    when the set was filled. *)
module Ids : sig
  type t

  val create : unit -> t
  (** An empty set, to be filled by {!reachable_into}. *)

  val cardinal : t -> int
  val mem : int -> t -> bool

  val iter : (int -> unit) -> t -> unit
  (** In ascending id order, as [Set.Make (Int)] iterates. *)

  val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
  (** In ascending id order. *)
end

val reachable : Heap.t -> int list -> Ids.t
(** The objects reachable from the given root ids.  Raises
    [Invalid_argument] on an id the heap never allocated, as
    {!Heap.get} does. *)

val reachable_into : Ids.t -> Heap.t -> int list -> unit
(** {!reachable} into an existing set, replacing its contents and
    reusing its buffers: the marker refills one snapshot every cycle. *)

val snapshot_violations : Heap.t -> Ids.t -> int
(** Members of a marking-start snapshot that are dead or unmarked at the
    end of the cycle — the invariant every SATB-family collector (plain
    SATB and the retrace variant) must satisfy. *)
