(** E18 — the flight recorder: a timeline walkthrough of a chaos run,
    and the always-on overhead measurement behind the <2% gate. *)

type row = {
  bench : string;
  steps : int;  (** instructions per run *)
  on_steps_s : float;  (** recorder enabled (the default) *)
  off_steps_s : float;  (** recorder disabled *)
  overhead_pct : float;
      (** median per-run time delta, on vs off; negative = noise *)
  events : int;  (** ring records per run with the recorder on *)
}

val walkthrough : unit -> string
(** Run db under the retrace collector with a late-spawn chaos plan and
    guards wired (the E11 revocation scenario), dump the recorder, parse
    the dump back and render the reconstructed timeline — the round trip
    `satbelim timeline` performs on an auto-captured dump.  Fully
    deterministic. *)

val measure : ?min_seconds:float -> ?min_pairs:int -> unit -> row list
(** A/B the recorder's master switch across the Table 1 workloads under
    the threaded engine at the E17 bench cadence.  The two arms are
    interleaved run-by-run with alternating within-pair order until
    cumulative mutator time reaches [min_seconds] (default 0.6s) and at
    least [min_pairs] (default 50) pairs ran; each arm is summarized by
    its median per-run mutator time, so slow drift and scheduler spikes
    cannot fake an overhead (A/A calibration: within +/-1.4%). *)

val to_json : row list -> Telemetry.json
(** The [flight] table of BENCH_flight.json; the gate ceilings
    [overhead_pct] at 2.0. *)

val render : row list -> string

val print : row list -> unit
(** The timeline walkthrough, which this runs, then the overhead
    table. *)
