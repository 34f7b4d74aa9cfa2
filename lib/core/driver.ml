(** End-to-end "JIT compilation" pipeline: verify → inline → analyze.

    The result bundles the expanded program, the per-site barrier verdicts
    keyed the way the runtime looks them up, and compile-time measurements
    used by the Figure 2 reproduction. *)

open Jir.Types

type site_key = {
  sk_class : class_name;
  sk_method : method_name;
  sk_pc : int;  (** pc in the {e inlined} method *)
}

let assumptions_of_reason (r : Analysis.reason) : assumption list =
  match r with
  | Analysis.Keep | Analysis.Dead_code | Analysis.Pre_null_field
  | Analysis.Null_or_same ->
      []
  | Analysis.Pre_null_array -> [ Mode_a ]
  | Analysis.Move_down -> [ Mode_a; Single_mutator; Descending_scan ]
  | Analysis.Swap_first | Analysis.Swap_second ->
      [ Mode_a; Single_mutator; Retrace_collector ]

(** Guards of the {e insertion}-half verdict alone.  Null and literal
    in-method freshness are unconditional (the collector's allocate-black
    plus remark re-scan cover them); freshness proved through a callee
    summary stands on the closed world. *)
let ins_assumptions_of_reason (r : Analysis.ins_reason) : assumption list =
  match r with
  | Analysis.Ins_keep | Analysis.Ins_null | Analysis.Ins_fresh
  | Analysis.Ins_dead ->
      []
  | Analysis.Ins_summary_fresh -> [ Closed_world ]

type compiled = {
  program : Jir.Program.t;  (** after inlining *)
  results : Analysis.method_result list;
  verdicts : (site_key, Analysis.verdict) Hashtbl.t;
  guards : (site_key, assumption list) Hashtbl.t;
      (** per-program guard table: assumption set of every {e elided}
          site whose verdict is conditional *)
  ins_guards : (site_key, assumption list) Hashtbl.t;
      (** insertion-half guard table: assumption set of every site whose
          {e insertion}-half elision is conditional — kept apart from
          [guards] so a hybrid collector can revoke one half of a barrier
          while the other stays elided *)
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

(** One compilation pass, timed on the telemetry clock ({!Telemetry.time}
    observes the [compile.<pass>_s] histogram) and mirrored as an
    [analysis.pass] trace event. *)
let timed_pass (name : string) (f : unit -> 'a) : 'a * float =
  let r, dt = Telemetry.time ("compile." ^ name ^ "_s") f in
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
  let verdicts = Hashtbl.create 256 in
  let guards = Hashtbl.create 16 in
  let ins_guards = Hashtbl.create 16 in
  List.iter
    (fun (r : Analysis.method_result) ->
      List.iter
        (fun (v : Analysis.verdict) ->
          let key =
            { sk_class = r.mr_class; sk_method = r.mr_method; sk_pc = v.v_pc }
          in
          Hashtbl.replace verdicts key v;
          (* Every elision in a method whose analysis consulted a callee
             summary additionally rests on the closed world: "loading" a
             class later invalidates the summaries, so the runtime must
             be able to revoke these sites.  The method-level flag cannot
             tell which half's proof leaned on a summary, so both halves
             carry the guard. *)
          let closed = if r.mr_summary_dependent then [ Closed_world ] else [] in
          (if v.v_elide then
             match assumptions_of_reason v.v_reason @ closed with
             | [] -> ()
             | assumptions -> Hashtbl.replace guards key assumptions);
          if v.v_ins_elide then
            match ins_assumptions_of_reason v.v_ins_reason @ closed with
            | [] -> ()
            | assumptions ->
                Hashtbl.replace ins_guards key
                  (List.sort_uniq compare assumptions))
        r.verdicts)
    results;
  Telemetry.incr ~by:(List.length results) (Telemetry.counter "analysis.methods");
  Telemetry.incr
    ~by:
      (List.fold_left
         (fun acc (r : Analysis.method_result) -> acc + r.iterations)
         0 results)
    (Telemetry.counter "analysis.fixpoint_iterations");
  Telemetry.incr ~by:(Hashtbl.length verdicts)
    (Telemetry.counter "analysis.sites.total");
  Telemetry.incr
    ~by:
      (Hashtbl.fold
         (fun _ (v : Analysis.verdict) n -> if v.v_elide then n + 1 else n)
         verdicts 0)
    (Telemetry.counter "analysis.sites.elided");
  (match summaries with
  | Some tbl ->
      Telemetry.incr ~by:(Summary.n_methods tbl)
        (Telemetry.counter "summary.methods");
      Telemetry.incr ~by:(Summary.n_havoced tbl)
        (Telemetry.counter "summary.havoced")
  | None -> ());
  {
    program;
    results;
    verdicts;
    guards;
    ins_guards;
    inline_limit;
    conf;
    summaries;
    analysis_seconds;
    inline_seconds;
    summary_seconds;
  }

(** Does the store at [key] still need its SATB barrier? *)
let needs_barrier (c : compiled) (key : site_key) : bool =
  match Hashtbl.find_opt c.verdicts key with
  | Some v -> not v.v_elide
  | None -> true

let verdict (c : compiled) (key : site_key) : Analysis.verdict option =
  Hashtbl.find_opt c.verdicts key

(** Tracing-state check the retrace collector's code generator emits at a
    swap-elided store: [`Open] at the pair's first store (also opens the
    safepoint-free window), [`Close] at the second. *)
let retrace_check (c : compiled) (key : site_key) :
    [ `None | `Open | `Close ] =
  match Hashtbl.find_opt c.verdicts key with
  | Some { v_elide = true; v_reason = Analysis.Swap_first; _ } -> `Open
  | Some { v_elide = true; v_reason = Analysis.Swap_second; _ } -> `Close
  | Some _ | None -> `None

(** The assumption set the elision at [key] depends on; empty for kept
    sites and unconditional verdicts. *)
let site_assumptions (c : compiled) (key : site_key) : assumption list =
  Option.value (Hashtbl.find_opt c.guards key) ~default:[]

(** The assumption set of the insertion-half elision at [key] alone. *)
let ins_site_assumptions (c : compiled) (key : site_key) : assumption list =
  Option.value (Hashtbl.find_opt c.ins_guards key) ~default:[]

(** The half-verdict lattice a hybrid-barrier code generator compiles
    from: the deletion verdict ([v_elide], overwritten-value facts) and
    the insertion verdict ([v_ins_elide], stored-value facts) combine
    pointwise. *)
type hybrid_verdict =
  [ `Keep  (** both halves stay *)
  | `Elide_deletion  (** only the Yuasa half proved removable *)
  | `Elide_insertion  (** only the Dijkstra half proved removable *)
  | `Elide_both ]

let string_of_hybrid_verdict : hybrid_verdict -> string = function
  | `Keep -> "keep"
  | `Elide_deletion -> "elide-deletion"
  | `Elide_insertion -> "elide-insertion"
  | `Elide_both -> "elide-both"

let hybrid_verdict (c : compiled) (key : site_key) : hybrid_verdict =
  match Hashtbl.find_opt c.verdicts key with
  | None -> `Keep
  | Some v -> (
      match v.Analysis.v_elide, v.Analysis.v_ins_elide with
      | false, false -> `Keep
      | true, false -> `Elide_deletion
      | false, true -> `Elide_insertion
      | true, true -> `Elide_both)

(** Does the insertion-half elision at [key] need its destination
    re-scanned at remark?  Freshness proofs do (the value may predate the
    cycle and be white); a proven-null store shades nothing either way. *)
let ins_repair_needed (c : compiled) (key : site_key) : bool =
  match Hashtbl.find_opt c.verdicts key with
  | Some
      {
        Analysis.v_ins_elide = true;
        v_ins_reason = Analysis.Ins_fresh | Analysis.Ins_summary_fresh;
        _;
      } ->
      true
  | Some _ | None -> false

(** Every assumption some elided site of the program depends on —
    deduplicated and in declaration order, for CLI safety checks and
    reporting. *)
let guarded_assumptions (c : compiled) : assumption list =
  Hashtbl.fold
    (fun _ assumptions acc ->
      List.fold_left
        (fun acc a -> if List.mem a acc then acc else a :: acc)
        acc assumptions)
    c.guards []
  |> List.sort compare

(* ---- elision provenance ("explain") ------------------------------------ *)

let string_of_site_key (k : site_key) : string =
  Printf.sprintf "%s.%s@%d" k.sk_class k.sk_method k.sk_pc

(** Why a site's barrier was removed, as an inspectable artifact: the
    rule (abstract fact) that fired, the chain of sub-facts it rests on,
    and the runtime guards the verdict depends on.  This is what
    [analyze --explain] prints and what revocation events carry, so a
    revoked site can name its original justification. *)
type provenance = {
  pv_key : site_key;
  pv_kind : Jir.Types.store_kind;
  pv_reason : Analysis.reason;
  pv_rule : string;  (** short rule name, e.g. ["pre-null-field"] *)
  pv_facts : string list;  (** the abstract-fact chain, outermost first *)
  pv_guards : assumption list;
  pv_summary_dependent : bool;
}

let rule_of_reason : Analysis.reason -> string = function
  | Analysis.Keep -> "keep"
  | Analysis.Dead_code -> "dead-code"
  | Analysis.Pre_null_field -> "pre-null-field"
  | Analysis.Pre_null_array -> "pre-null-array"
  | Analysis.Null_or_same -> "null-or-same"
  | Analysis.Move_down -> "move-down"
  | Analysis.Swap_first -> "swap-first"
  | Analysis.Swap_second -> "swap-second"

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

(** Provenance for the verdict at [key]; [None] for unknown sites. *)
let explain (c : compiled) (key : site_key) : provenance option =
  match Hashtbl.find_opt c.verdicts key with
  | None -> None
  | Some v ->
      let summary_dependent =
        List.exists
          (fun (r : Analysis.method_result) ->
            r.mr_summary_dependent && r.mr_class = key.sk_class
            && r.mr_method = key.sk_method)
          c.results
      in
      let facts =
        facts_of_reason v.v_reason
        @ (if v.v_ins_elide then facts_of_ins_reason v.v_ins_reason else [])
        @
        if v.v_elide && summary_dependent then
          [
            "the analysis consulted interprocedural callee summaries: \
             valid only while no class loads after compilation \
             (closed world)";
          ]
        else []
      in
      Some
        {
          pv_key = key;
          pv_kind = v.v_kind;
          pv_reason = v.v_reason;
          pv_rule = rule_of_reason v.v_reason;
          pv_facts = facts;
          pv_guards =
            (if v.v_elide then
               Option.value (Hashtbl.find_opt c.guards key) ~default:[]
             else []);
          pv_summary_dependent = summary_dependent;
        }

(** Provenance of every {e elided} site, sorted by site id
    (class, method, pc) so the output is deterministic. *)
let explanations (c : compiled) : provenance list =
  Hashtbl.fold
    (fun key (v : Analysis.verdict) acc ->
      if v.v_elide then
        match explain c key with Some p -> p :: acc | None -> acc
      else acc)
    c.verdicts []
  |> List.sort (fun a b -> compare a.pv_key b.pv_key)

let pp_provenance ppf (p : provenance) =
  Fmt.pf ppf "%s %s %s"
    (string_of_site_key p.pv_key)
    (match p.pv_kind with
    | Jir.Types.Field_store -> "putfield"
    | Jir.Types.Array_store -> "aastore"
    | Jir.Types.Static_store -> "putstatic")
    p.pv_rule;
  List.iter (fun f -> Fmt.pf ppf "@.    - %s" f) p.pv_facts;
  match p.pv_guards with
  | [] -> Fmt.pf ppf "@.    guards: none (unconditional)"
  | gs ->
      Fmt.pf ppf "@.    guards: %s"
        (String.concat ", " (List.map string_of_assumption gs))

(** One-line justification string attached to runtime revocation events. *)
let justification (c : compiled) (key : site_key) : string option =
  match explain c key with
  | Some p when p.pv_guards <> [] || p.pv_reason <> Analysis.Keep ->
      Some
        (Printf.sprintf "%s (guards: %s)" p.pv_rule
           (match p.pv_guards with
           | [] -> "none"
           | gs -> String.concat ", " (List.map string_of_assumption gs)))
  | Some _ | None -> None

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
    (fun _ (v : Analysis.verdict) ->
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
    c.verdicts;
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
      (fun _ (v : Analysis.verdict) acc -> if v.v_elide then acc else acc + 1)
      c.verdicts 0
  in
  base + (barrier_footprint * barriers)
