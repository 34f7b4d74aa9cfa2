(** RISC-instruction cost model for write barriers, calibrated to the
    paper's §1: the SATB barrier's inline path costs "between 9 and 12
    RISC instructions" while active; a card-marking barrier "as few as
    two". *)

type satb_mode =
  | No_barrier  (** Table 2 "no-barrier" *)
  | Conditional  (** normal barrier: marking check first *)
  | Always_log  (** Table 2 "always-log": check elided (§4.5) *)

val check_marking : int
val load_and_test_pre : int
val log_out_of_line : int
val satb_cost : mode:satb_mode -> marking:bool -> pre_null:bool -> int

val hybrid_ins_cost : marking:bool -> stack_grey:bool -> int
(** Insertion (Dijkstra) half: marking check, stack-scan-state test,
    shade call while the storing thread's stack is grey. *)

val tracing_check_units : int
(** Inline cost of the retrace collector's tracing-state check compiled at
    a swap-elided store (load state, compare, branch). *)

val bytecode_units : int
(** Average machine instructions per interpreted bytecode — the base work
    barrier overhead is measured against. *)
