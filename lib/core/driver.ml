(** End-to-end "JIT compilation" pipeline: verify → inline → analyze.

    The result bundles the expanded program, every store site's verdict
    record keyed the way the runtime looks it up, and compile-time
    measurements used by the Figure 2 reproduction. *)

open Jir.Types

(* Guards of the deletion-half verdict.  Unconditional verdicts
   (pre-null field, null-or-same, dead code) carry none; §3 array
   verdicts rest on mode A; the §4.3 move-down and swap extensions also
   on a single mutator and on the collector (scan direction / retrace
   protocol). *)
let assumptions_of_reason (r : Analysis.reason) : assumption list =
  match r with
  | Analysis.Keep | Analysis.Dead_code | Analysis.Pre_null_field
  | Analysis.Null_or_same ->
      []
  | Analysis.Pre_null_array -> [ Mode_a ]
  | Analysis.Move_down -> [ Mode_a; Single_mutator; Descending_scan ]
  | Analysis.Swap_first | Analysis.Swap_second ->
      [ Mode_a; Single_mutator; Retrace_collector ]

(* Guards of the insertion-half verdict alone.  Null and literal
   in-method freshness are unconditional (the collector's allocate-black
   plus remark re-scan cover them); freshness proved through a callee
   summary stands on the closed world. *)
let ins_assumptions_of_reason (r : Analysis.ins_reason) : assumption list =
  match r with
  | Analysis.Ins_keep | Analysis.Ins_null | Analysis.Ins_fresh
  | Analysis.Ins_dead ->
      []
  | Analysis.Ins_summary_fresh -> [ Closed_world ]

(** One store site as compiled: the analysis's verdict and the runtime
    record built from it. *)
type site_verdict = {
  analysis : Analysis.verdict;
  barrier : verdict;
      (** both halves with their full guard sets, the remark-repair flag,
          the tracing-state check and one justification per half *)
}

type compiled = {
  program : Jir.Program.t;  (** after inlining *)
  results : Analysis.method_result list;
  sites : (site, site_verdict) Hashtbl.t;
  inline_limit : int;
  conf : Analysis.config;
  summaries : Summary.table option;
      (** the interprocedural summary table, when [conf.summaries] *)
  analysis_seconds : float;
      (** monotonic wall-clock seconds in the analysis proper
          ({!Telemetry.now_s}, so traces and verbose timings agree) *)
  inline_seconds : float;
  summary_seconds : float;  (** wall-clock seconds computing summaries *)
}

(** Statistics over static store sites (tech-report-style static counts). *)
type static_stats = {
  total_sites : int;
  elided_sites : int;
  field_sites : int;
  field_elided : int;
  array_sites : int;
  array_elided : int;
  static_sites : int;
  by_reason : (Analysis.reason * int) list;
  ins_elided_sites : int;
      (** sites whose {e insertion} (Dijkstra) half is removable — only a
          hybrid collector can cash these in *)
  both_elided_sites : int;  (** sites with both halves removable *)
  by_ins_reason : (Analysis.ins_reason * int) list;
}

(* A half's one-line justification, as revocation events and profile
   rows print it: the rule that fired and the guards it stands on. *)
let justification rule guards =
  lazy
    (Some
       (Printf.sprintf "%s (guards: %s)" rule
          (match guards with
          | [] -> "none"
          | gs -> String.concat ", " (List.map string_of_assumption gs))))

(* The runtime record of one analysis verdict.  Every elision in a
   method whose analysis consulted a callee summary additionally rests on
   the closed world: "loading" a class later invalidates the summaries,
   so the runtime must be able to revoke these sites.  The method-level
   flag cannot tell which half's proof leaned on a summary, so both
   halves carry the guard. *)
let barrier_of (v : Analysis.verdict) ~summary_dependent : verdict =
  let closed = if summary_dependent then [ Closed_world ] else [] in
  let del_guards =
    if v.v_elide then assumptions_of_reason v.v_reason @ closed else []
  in
  let ins_guards =
    if v.v_ins_elide then
      List.sort_uniq compare (ins_assumptions_of_reason v.v_ins_reason @ closed)
    else []
  in
  {
    del_elide = v.v_elide;
    del_guards;
    ins_elide = v.v_ins_elide;
    ins_guards;
    ins_repair =
      v.v_ins_elide
      && (match v.v_ins_reason with
         | Analysis.Ins_fresh | Analysis.Ins_summary_fresh -> true
         | Analysis.Ins_keep | Analysis.Ins_null | Analysis.Ins_dead -> false);
    check =
      (match v.v_reason with
      | Analysis.Swap_first -> Check_open
      | Analysis.Swap_second -> Check_close
      | Analysis.Keep | Analysis.Pre_null_field | Analysis.Pre_null_array
      | Analysis.Null_or_same | Analysis.Move_down | Analysis.Dead_code ->
          No_check);
    del_why =
      (if v.v_elide then
         justification (Analysis.string_of_reason v.v_reason) del_guards
       else keep.del_why);
    ins_why =
      (if v.v_ins_elide then
         justification (Analysis.string_of_ins_reason v.v_ins_reason) ins_guards
       else keep.ins_why);
  }

(** One compilation pass, timed on the telemetry clock and mirrored as an
    [analysis.pass] trace event. *)
let timed_pass (name : string) (f : unit -> 'a) : 'a * float =
  let t0 = Telemetry.now_s () in
  let r = f () in
  let dt = Telemetry.now_s () -. t0 in
  Telemetry.emit "analysis.pass"
    [ ("pass", Telemetry.Str name); ("seconds", Telemetry.Float dt) ];
  (r, dt)

let compile ?(verify = true) ?(inline_limit = 100)
    ?(conf = Analysis.default_config) (prog : Jir.Program.t) : compiled =
  if verify then Jir.Verifier.verify_exn prog;
  let program, inline_seconds =
    timed_pass "inline" (fun () ->
        Inliner.inline_program ~conf:(Inliner.config inline_limit) prog)
  in
  let summaries, summary_seconds =
    timed_pass "summary" (fun () ->
        if conf.Analysis.summaries then Some (Summary.of_program program)
        else None)
  in
  let results, analysis_seconds =
    timed_pass "analysis" (fun () ->
        Analysis.analyze_program ~conf ?summaries program)
  in
  let sites = Hashtbl.create 256 in
  List.iter
    (fun (r : Analysis.method_result) ->
      List.iter
        (fun (v : Analysis.verdict) ->
          let site =
            { s_class = r.mr_class; s_method = r.mr_method; s_pc = v.v_pc }
          in
          Hashtbl.replace sites site
            {
              analysis = v;
              barrier =
                barrier_of v ~summary_dependent:r.mr_summary_dependent;
            })
        r.verdicts)
    results;
  {
    program;
    results;
    sites;
    inline_limit;
    conf;
    summaries;
    analysis_seconds;
    inline_seconds;
    summary_seconds;
  }

(** The verdict record the barrier at [site] compiles from; {!keep} for
    a site the analysis never saw. *)
let barrier (c : compiled) (site : site) : verdict =
  match Hashtbl.find_opt c.sites site with Some s -> s.barrier | None -> keep

(* ---- elision provenance ("explain") ------------------------------------ *)

(** Why a site's barrier was removed, as an inspectable artifact: the
    rule (abstract fact) that fired, the chain of sub-facts it rests on,
    and the runtime guards the verdict depends on.  This is what
    [analyze --explain] prints and what revocation events carry, so a
    revoked site can name its original justification. *)
type provenance = {
  pv_key : site;
  pv_kind : store_kind;
  pv_reason : Analysis.reason;
  pv_rule : string;  (** short rule name, e.g. ["pre-null-field"] *)
  pv_facts : string list;  (** the abstract-fact chain, outermost first *)
  pv_guards : assumption list;
}

let facts_of_reason : Analysis.reason -> string list = function
  | Analysis.Keep -> [ "no elision rule applied; the SATB barrier stays" ]
  | Analysis.Dead_code -> [ "the store is unreachable (dead code, §2.4)" ]
  | Analysis.Pre_null_field ->
      [
        "receiver is a unique thread-local object (R_id uniqueness, \
         §2.4 two-names precision)";
        "the stored-to field is definitely null on every path to the \
         store (§2 abstract nullness)";
      ]
  | Analysis.Pre_null_array ->
      [
        "the array identity is tracked by the mode-A array analysis (§3)";
        "the store index lies inside the array's null range NR (§3.1)";
      ]
  | Analysis.Null_or_same ->
      [
        "the overwritten slot is null or already holds the stored value \
         (null-or-same, §4.3)";
      ]
  | Analysis.Move_down ->
      [
        "delete-by-shift copy store: the value was loaded from the same \
         array at a higher index (§4.3 move-down)";
        "the collector scans object arrays in descending index order, so \
         the source slot is visited before the destination";
        "a single mutator: no concurrent store can interleave the shift";
      ]
  | Analysis.Swap_first ->
      [
        "first store of an elided pairwise swap: both stores sit in one \
         basic block with only whitelisted instructions between (§4.3)";
        "a tracing-state check is compiled in place of the barrier and \
         opens the safepoint-free window";
        "the retrace collector re-scans the object if its scan was in \
         flight when the unlogged store hit";
      ]
  | Analysis.Swap_second ->
      [
        "second store of an elided pairwise swap (§4.3)";
        "its tracing-state check closes the safepoint-free window opened \
         by the first store";
      ]

let facts_of_ins_reason : Analysis.ins_reason -> string list = function
  | Analysis.Ins_keep -> []
  | Analysis.Ins_null ->
      [ "insertion half: the stored value is provably null (nothing to shade)" ]
  | Analysis.Ins_fresh ->
      [
        "insertion half: every possible stored value is an in-method \
         allocation — black if allocated during marking, covered by the \
         destination's remark re-scan otherwise";
      ]
  | Analysis.Ins_summary_fresh ->
      [
        "insertion half: the stored value is fresh by a callee summary's \
         Ret_fresh — valid only while the world stays closed";
      ]
  | Analysis.Ins_dead ->
      [ "insertion half: the store is unreachable (dead code)" ]

(* Provenance of the verdict at [key]. *)
let explain (key : site) (s : site_verdict) : provenance =
  let v = s.analysis in
  let facts =
    facts_of_reason v.v_reason
    @ (if v.v_ins_elide then facts_of_ins_reason v.v_ins_reason else [])
    @
    if List.mem Closed_world s.barrier.del_guards then
      [
        "the analysis consulted interprocedural callee summaries: \
         valid only while no class loads after compilation \
         (closed world)";
      ]
    else []
  in
  {
    pv_key = key;
    pv_kind = v.v_kind;
    pv_reason = v.v_reason;
    pv_rule = Analysis.string_of_reason v.v_reason;
    pv_facts = facts;
    pv_guards = s.barrier.del_guards;
  }

(** Provenance of every {e elided} site, sorted by site id
    (class, method, pc) so the output is deterministic. *)
let explanations (c : compiled) : provenance list =
  Hashtbl.fold
    (fun key s acc -> if s.analysis.v_elide then explain key s :: acc else acc)
    c.sites []
  |> List.sort (fun a b -> compare a.pv_key b.pv_key)

let pp_provenance ppf (p : provenance) =
  Fmt.pf ppf "%s %s %s"
    (string_of_site p.pv_key)
    (match p.pv_kind with
    | Field_store -> "putfield"
    | Array_store -> "aastore"
    | Static_store -> "putstatic")
    p.pv_rule;
  List.iter (fun f -> Fmt.pf ppf "@.    - %s" f) p.pv_facts;
  match p.pv_guards with
  | [] -> Fmt.pf ppf "@.    guards: none (unconditional)"
  | gs ->
      Fmt.pf ppf "@.    guards: %s"
        (String.concat ", " (List.map string_of_assumption gs))

let static_stats (c : compiled) : static_stats =
  let total = ref 0
  and elided = ref 0
  and field = ref 0
  and field_e = ref 0
  and array = ref 0
  and array_e = ref 0
  and static_ = ref 0
  and ins_elided = ref 0
  and both_elided = ref 0 in
  let reasons = Hashtbl.create 8 in
  let ins_reasons = Hashtbl.create 8 in
  Hashtbl.iter
    (fun _ { analysis = v; _ } ->
      incr total;
      if v.v_elide then incr elided;
      if v.v_ins_elide then incr ins_elided;
      if v.v_elide && v.v_ins_elide then incr both_elided;
      (if v.v_ins_elide then
         let k = v.v_ins_reason in
         Hashtbl.replace ins_reasons k
           (1 + Option.value ~default:0 (Hashtbl.find_opt ins_reasons k)));
      (match v.v_kind with
      | Field_store ->
          incr field;
          if v.v_elide then incr field_e
      | Array_store ->
          incr array;
          if v.v_elide then incr array_e
      | Static_store -> incr static_);
      let k = v.v_reason in
      Hashtbl.replace reasons k (1 + Option.value ~default:0 (Hashtbl.find_opt reasons k)))
    c.sites;
  {
    total_sites = !total;
    elided_sites = !elided;
    field_sites = !field;
    field_elided = !field_e;
    array_sites = !array;
    array_elided = !array_e;
    static_sites = !static_;
    by_reason =
      Hashtbl.fold (fun k n acc -> (k, n) :: acc) reasons []
      |> List.sort compare;
    ins_elided_sites = !ins_elided;
    both_elided_sites = !both_elided;
    by_ins_reason =
      Hashtbl.fold (fun k n acc -> (k, n) :: acc) ins_reasons []
      |> List.sort compare;
  }

let pp_static_stats ppf (s : static_stats) =
  Fmt.pf ppf
    "sites: %d total, %d elided (%.1f%%); fields %d/%d; arrays %d/%d; statics %d"
    s.total_sites s.elided_sites
    (if s.total_sites = 0 then 0.
     else 100. *. float_of_int s.elided_sites /. float_of_int s.total_sites)
    s.field_elided s.field_sites s.array_elided s.array_sites s.static_sites;
  let interesting =
    List.filter (fun (r, _) -> r <> Analysis.Keep) s.by_reason
    |> List.sort compare
  in
  if interesting <> [] then
    Fmt.pf ppf "; by reason: %a"
      Fmt.(
        list ~sep:comma (fun ppf (r, n) ->
            pf ppf "%s %d" (Analysis.string_of_reason r) n))
      interesting;
  if s.ins_elided_sites > 0 then (
    Fmt.pf ppf "; insertion-half %d elided (%d both)" s.ins_elided_sites
      s.both_elided_sites;
    let ins_interesting =
      List.filter (fun (r, _) -> r <> Analysis.Ins_keep) s.by_ins_reason
    in
    if ins_interesting <> [] then
      Fmt.pf ppf "; by ins reason: %a"
        Fmt.(
          list ~sep:comma (fun ppf (r, n) ->
              pf ppf "%s %d" (Analysis.string_of_ins_reason r) n))
        ins_interesting)

(** Code-size model for the Figure 3 reproduction: every bytecode compiles
    to roughly [codegen_expansion] machine instructions, plus the inline
    footprint of an SATB barrier at every reference store that kept its
    barrier.  The paper (§1) puts the barrier at 9-12 RISC instructions;
    we charge the static inline portion.  With this model barrier
    elimination reduces compiled code size by a few percent, as the
    paper's Figure 3 reports (2-6%). *)
let barrier_footprint = 11

let codegen_expansion = 8

let code_size (c : compiled) : int =
  let base = codegen_expansion * Jir.Program.total_instr_count c.program in
  let barriers =
    Hashtbl.fold
      (fun _ s acc -> if s.analysis.v_elide then acc else acc + 1)
      c.sites 0
  in
  base + (barrier_footprint * barriers)
