(** The heap-state observatory: per-cycle census, barrier-float
    accounting against the exact-reachability oracle, dominator-based
    retention, and byte-stable snapshot export/diff.

    One observatory observes one run.  Arm the machine ({!arm}) before
    the run so the interpreter records elided-store verdicts, then have
    the runner invoke {!observe} at each cycle end — after the
    collector's final pause (so survivors carry their mark origins) and
    {e before} {!Jrt.Interp.reset_cycle_state} clears the verdict log.

    Float accounting: the collector's survivors minus the oracle's
    reachable set is the cycle's floating garbage — retained not because
    anything reaches it but because of {e how} concurrent marking kept
    it.  Each floating object is attributed two ways: by the origin the
    collector stamped when it marked it (SATB/card/shade log entry,
    allocate-black, revocation repair or retrace re-scan, or inherited
    from the parent that dragged it along), and by the elision-verdict
    class of any elided store that wrote it during the cycle. *)

val origin_names : string array
(** Index-aligned with {!Jrt.Heap.origin_none} .. [origin_repair]. *)

val n_origins : int

val verdict_names : string array
(** Index-aligned with {!Jrt.Interp.ew_full} .. [ew_both]. *)

val n_verdicts : int

type cycle_stats = {
  cs_cycle : int;  (** 0-based completed-cycle index *)
  cs_collector : string;
  cs_live : int;  (** survivors after the sweep *)
  cs_live_units : int;
  cs_sites : int;  (** distinct census rows *)
  cs_float_objs : int;
  cs_float_units : int;
  cs_float_origin_objs : int array;  (** per {!origin_names} *)
  cs_float_origin_units : int array;
  cs_float_verdict_objs : int array;
      (** floating objects written through an elided (half-)barrier this
          cycle, per {!verdict_names}; classes are not mutually exclusive *)
}

type t

val create : unit -> t

val arm : Jrt.Interp.t -> unit
(** Set {!Jrt.Interp.t.track_heap} so elided stores during marking are
    logged for verdict attribution.  Call before the run starts. *)

val observe : t -> Jrt.Interp.t -> unit
(** The cycle-end hook: census, oracle sweep, attribution.  Records a
    {!Flight.Census} ["heap.census"] event carrying both census totals
    and the heap's own counters, for [validate-trace] reconciliation. *)

val census_period : int
(** Sampling period of {!census_tick}'s full per-site fold. *)

val census_tick : Jrt.Interp.t -> unit
(** The light cycle-end hook for always-on census telemetry: no oracle
    sweep or attribution, the heap's O(1) counters every cycle, and the
    full per-site census fold — which is sweep-sized — only every
    {!census_period}-th cycle (counters-only events carry no
    [census_live]).  This sampled path is what the E19 <3% overhead
    gate measures; {!observe} is the full diagnostic `satbelim heap`
    runs, census fold and oracle sweep every cycle. *)

val cycles : t -> cycle_stats list
(** Observed cycles, oldest first. *)

val float_totals : t -> int * int
(** (objects, units) floated across all observed cycles. *)

val origin_unit_totals : t -> int array
val verdict_obj_totals : t -> int array

(** {2 Dominator retention} *)

type retainer = {
  r_site : int;
  r_cls : Jir.Types.class_name;
  r_retained : int;  (** units retained by objects of this site × class *)
}

type chain_hop = {
  ch_id : int;
  ch_cls : Jir.Types.class_name;
  ch_site : int;
  ch_units : int;
  ch_retained : int;
}

val retainers : Jrt.Interp.t -> retainer list
(** Retained units per (site × class) over the current live heap,
    heaviest first.  Retained = sum of dominator-subtree sizes of the
    group's objects (groups overlap when one dominates another, as in
    every heap profiler). *)

val retainer_chains : Jrt.Interp.t -> top:int -> chain_hop list list
(** For the [top] objects by retained size: the idom chain from the
    object up to the virtual root, object first. *)

(** {2 Snapshot export and diff} *)

val snapshot : t -> Jrt.Interp.t -> Telemetry.json
(** Byte-stable snapshot of the current heap (census + retention) plus
    the per-cycle float history observed so far.  Serialize with
    {!Telemetry.json_to_string_pretty}; key order and row sorts are
    deterministic. *)

type diff_row = {
  dr_site : string;
  dr_cls : string;
  dr_live : int * int;  (** old, new *)
  dr_units : int * int;  (** old, new *)
}

val diff : Telemetry.json -> Telemetry.json -> (diff_row list, string) result
(** Census delta between two parsed snapshots, biggest absolute unit
    growth first; unchanged rows are dropped. *)

(** {2 Rendering} *)

val render_census : ?top:int -> Census.row list -> string
val render_retainers : ?top:int -> Jrt.Interp.t -> string
val render_float : t -> string

val render_diff :
  old_name:string ->
  new_name:string ->
  Telemetry.json ->
  Telemetry.json ->
  (string, string) result
