(** The barrier-removal abstract interpretation (paper §2 and §3): a
    flow-sensitive, intraprocedural iterative dataflow analysis over basic
    blocks, producing a verdict — barrier removable or not, and why — for
    every reference-store site.  The verdict recorded at the fixed point
    is the sound one (§2.4). *)

(** Analysis modes, matching the configurations of the paper's Figures 2
    and 3: no analysis / field only / field + array. *)
type mode = B | F | A

val mode_of_string : string -> mode option
val string_of_mode : mode -> string

type config = {
  mode : mode;
  null_or_same : bool;  (** enable the §4.3 null-or-same extension *)
  move_down : bool;
      (** enable the §4.3 move-down elision; applied only to
          single-mutator programs, and requires the collector to scan
          object arrays in descending index order *)
  swap : bool;
      (** enable the §4.3 pairwise-swap elision; applied only to
          single-mutator programs, and sound only under the retrace
          collector's tracing-state protocol — elided pairs are surfaced
          as tracing-check sites *)
  two_names : bool;
      (** §2.4 two-names-per-site precision; disable only for the
          ablation study *)
  max_visits : int;  (** per-block widening threshold *)
  summaries : bool;
      (** consult interprocedural callee summaries ({!Summary}) at
          non-inlined [Invoke]s instead of the blanket havoc *)
  debug : bool;  (** trace block states and verdicts on stderr *)
}

val default_config : config

(** Why a barrier was removed (or kept). *)
type reason =
  | Keep
  | Pre_null_field  (** §2: receiver thread-local, field definitely null *)
  | Pre_null_array  (** §3: index within the array's null range *)
  | Null_or_same  (** §4.3: rewrites the field's value or fills a null *)
  | Move_down  (** §4.3: delete-by-shift copy store *)
  | Swap_first
      (** §4.3: first store of an elided pairwise swap; requires the
          retrace collector's tracing-state check in place of the
          barrier *)
  | Swap_second  (** §4.3: second store of an elided pairwise swap *)
  | Dead_code

val string_of_reason : reason -> string

(** Why the insertion (Dijkstra) half of a hybrid barrier was removed (or
    kept): facts about the {e stored} value, independent of the
    deletion-half facts about the overwritten one. *)
type ins_reason =
  | Ins_keep
  | Ins_null  (** stored value provably null *)
  | Ins_fresh  (** every possible value is an in-method allocation *)
  | Ins_summary_fresh
      (** fresh via a callee summary ([Ret_fresh]); additionally rests on
          the closed-world assumption *)
  | Ins_dead

val string_of_ins_reason : ins_reason -> string

val ins_elides : ins_reason -> bool

type verdict = {
  v_pc : int;
  v_kind : Jir.Types.store_kind;
  v_elide : bool;
  v_reason : reason;
  v_ins_elide : bool;  (** the insertion half alone is removable *)
  v_ins_reason : ins_reason;
}

type method_result = {
  mr_class : Jir.Types.class_name;
  mr_method : Jir.Types.method_name;
  verdicts : verdict list;  (** one per reference-store site, by pc *)
  iterations : int;  (** block visits until the fixed point *)
  invoke_havocs : int;
      (** blanket call havocs applied while reaching the fixed point *)
  mr_summary_dependent : bool;
      (** a callee summary was consulted: elisions in this method also
          depend on the closed-world assumption *)
}

val analyze_method :
  ?conf:config ->
  ?single_mutator:bool ->
  ?summaries:Summary.table ->
  Jir.Program.t ->
  Jir.Types.cls ->
  Jir.Types.meth ->
  method_result
(** Analyze one (already inlined) method to its fixed point.
    [single_mutator] gates the move-down extension; [summaries] (used
    only under [conf.summaries]) replaces the blanket [Invoke] havoc with
    the callee's summarized effects. *)

val analyze_program :
  ?conf:config ->
  ?summaries:Summary.table ->
  Jir.Program.t ->
  method_result list
(** Analyze every method.  With [conf.summaries] and no table supplied,
    the summary table is computed here first. *)
