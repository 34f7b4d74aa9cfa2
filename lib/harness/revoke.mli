(** E11 — guarded elision under chaos fault injection: the
    revocation-enabled sweep (fault plans × collectors × workloads, all
    expected violation-free) and its revocation-disabled counterpart
    (the oracle must catch late spawns and barrier skips). *)

type row = {
  plan : string;
  collector : string;
  bench : string;
  violations : int;
  revocations : int;
  revoked_sites : int;
  degradations : int;
  damage : int;
  retraces : int;
}

type caught_row = {
  c_plan : string;
  c_collector : string;
  c_bench : string;
  c_seed : int;
  c_violations : int;
}

val measure : unit -> row list
(** The revocation-enabled sweep; every row must report 0 violations. *)

val measure_caught : ?seeds:int list -> unit -> caught_row list
(** Revocation disabled on the guarded workloads (db, jbb): late spawns
    must be caught somewhere, barrier skips everywhere. *)

val render : row list -> string
val render_caught : caught_row list -> string
val print : unit -> unit
