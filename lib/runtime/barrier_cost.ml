(** RISC-instruction cost model for write barriers.

    The paper (§1) reports that the Garbage-First SATB barrier's inline
    portion "first checks whether marking is in progress.  If so, it reads
    the pre-write value of the field, and checks whether that value is
    non-null; if so, it calls an out-of-line routine to add the value to a
    thread-local buffer.  These steps require between 9 and 12 RISC
    instructions for each barrier", while a card-marking incremental-update
    barrier "can cost as few as two extra instructions per pointer write"
    (§1, citing Hölzle).

    Unit = one RISC instruction.  Every interpreted bytecode also costs
    {!bytecode_units} units, giving an end-to-end denominator for the
    Table 2 throughput model. *)

type satb_mode =
  | No_barrier  (** all SATB barriers compiled out (Table 2 "no-barrier") *)
  | Conditional  (** normal barrier: check the marking flag first *)
  | Always_log
      (** Table 2 "always-log": the marking check is elided and non-null
          pre-values are always logged, simulating fully incrementalized
          marking (§4.5) *)

(* Component costs, in RISC instructions. *)
let check_marking = 3  (* load flag, compare, branch *)
let load_and_test_pre = 4  (* load pre-value, compare null, branch *)
let log_out_of_line = 5  (* spill, buffer store, bump index, overflow check *)

(** Cost of one executed SATB barrier. *)
let satb_cost ~(mode : satb_mode) ~(marking : bool) ~(pre_null : bool) : int =
  match mode with
  | No_barrier -> 0
  | Conditional ->
      if not marking then check_marking
      else
        check_marking + load_and_test_pre
        + if pre_null then 0 else log_out_of_line
  (* 3 / 7 / 12 — matching the paper's "between 9 and 12" when active *)
  | Always_log ->
      load_and_test_pre + if pre_null then 0 else log_out_of_line

(** Insertion (Dijkstra) half of the hybrid barrier; its deletion (Yuasa)
    half is the SATB shape, {!satb_cost} [~mode:Conditional].  The
    insertion half shares the marking check with the deletion half when
    both are compiled (the fused form), so on its own it costs a
    stack-scan-state load/test plus the shade call; the shade of an
    already-marked value stops at the test. *)
let hybrid_ins_cost ~(marking : bool) ~(stack_grey : bool) : int =
  if not marking then check_marking
  else check_marking + (2 (* load scan state, branch *))
       + if stack_grey then log_out_of_line else 0

(** Cost of the tracing-state check the retrace collector's compiler emits
    at a swap-elided store in place of the full SATB barrier: load the
    object's tracing state, compare, branch (§4.3).  The slow path — the
    out-of-line retrace enqueue — only runs while the object is being
    traced concurrently, unlike the SATB log which runs for the whole of
    marking. *)
let tracing_check_units = 3

(** Average cost of one interpreted bytecode in RISC instructions — the
    base work the barrier overhead is measured against. *)
let bytecode_units = 8
