(** The barrier-removal abstract interpretation (paper §2 and §3).

    A flow-sensitive, intraprocedural iterative dataflow analysis over
    basic blocks.  Each reference store site receives a verdict: whether
    its SATB write barrier may be omitted, and why.  The verdict recorded
    at the analysis fixed point is the sound one (§2.4, last paragraph).

    Modes correspond to the configurations measured in the paper's
    Figures 2 and 3:
    - [B] — no analysis, every barrier kept (baseline);
    - [F] — field analysis only (§2): pre-null object-field stores;
    - [A] — field + array analysis (§3): additionally proves array-element
      stores initializing via null ranges and stride inference.

    The [null_or_same] flag enables the §4.3 extension (implemented here,
    where the paper did the reasoning "by inspection"): a store may also be
    elided when the written value provably either equals the current field
    content or overwrites null, for unique thread-local receivers. *)

open Jir.Types
module Rset = Refsym.Set

type mode = B | F | A

let mode_of_string = function
  | "B" | "b" -> Some B
  | "F" | "f" -> Some F
  | "A" | "a" -> Some A
  | _ -> None

let string_of_mode = function B -> "B" | F -> "F" | A -> "A"

type config = {
  mode : mode;
  null_or_same : bool;
  move_down : bool;
      (** enable the §4.3 move-down (delete-by-shift) elision; it is only
          applied when the program is single-mutator (no spawn) and
          requires the collector to scan object arrays in descending
          index order *)
  swap : bool;
      (** enable the §4.3 pairwise-swap (rearrangement) elision: both
          stores of a same-block swap of two elements of a
          must-identified array.  Only sound under the retrace
          collector's tracing-state protocol ({!Retrace_gc}), so elided
          pairs are surfaced as tracing-check sites rather than plain
          elisions; gated on single-mutator like move-down *)
  two_names : bool;
      (** the paper's §2.4 precision: a unique [R_id/A] for the most
          recent allocation plus a summary [R_id/B].  Disabling it (for
          the ablation study) collapses every site to its summary name,
          losing strong update and the constructor-fresh-object facts *)
  max_visits : int;
      (** widening threshold: after this many visits of a block, integer
          components merge straight to ⊤ *)
  summaries : bool;
      (** consult interprocedural callee summaries ({!Summary}) at
          non-inlined [Invoke]s instead of the blanket havoc; unknown
          targets still havoc *)
  debug : bool;  (** trace block states and verdicts on stderr *)
}

let default_config =
  {
    mode = A;
    null_or_same = false;
    move_down = false;
    swap = false;
    two_names = true;
    max_visits = 24;
    summaries = false;
    debug = false;
  }

(** Why a barrier was removed (or kept). *)
type reason =
  | Keep
  | Pre_null_field  (** §2: receiver thread-local, field definitely null *)
  | Pre_null_array  (** §3: index within the array's null range *)
  | Null_or_same  (** §4.3 extension *)
  | Move_down
      (** §4.3 extension: delete-by-shift store whose overwritten value is
          null or was re-stored at a lower index *)
  | Swap_first
      (** §4.3 extension: first store of an elided pairwise swap — the
          displaced element is provably re-stored by the pair's second
          store in the same basic block.  Requires the retrace
          collector's tracing-state check in place of the barrier. *)
  | Swap_second  (** second store of an elided pairwise swap *)
  | Dead_code  (** store unreachable in the analyzed method *)

let string_of_reason = function
  | Keep -> "keep"
  | Pre_null_field -> "pre-null-field"
  | Pre_null_array -> "pre-null-array"
  | Null_or_same -> "null-or-same"
  | Move_down -> "move-down"
  | Swap_first -> "swap-first"
  | Swap_second -> "swap-second"
  | Dead_code -> "dead-code"

(** Why the {e insertion} (Dijkstra) half of a hybrid barrier was removed
    (or kept).  The deletion-half verdict above proves facts about the
    {e overwritten} value; these prove facts about the {e stored} value —
    the two halves are independent, which is what lets a hybrid-barrier
    collector elide one without the other. *)
type ins_reason =
  | Ins_keep
  | Ins_null  (** stored value is provably null: nothing to shade *)
  | Ins_fresh
      (** stored value was allocated in the analyzed method, so it is
          black when allocated during marking and the destination's
          remark re-scan covers it otherwise *)
  | Ins_summary_fresh
      (** fresh via a callee summary's [Ret_fresh]: additionally rests on
          the closed-world assumption *)
  | Ins_dead  (** store unreachable in the analyzed method *)

let string_of_ins_reason = function
  | Ins_keep -> "ins-keep"
  | Ins_null -> "ins-null"
  | Ins_fresh -> "ins-fresh"
  | Ins_summary_fresh -> "ins-summary-fresh"
  | Ins_dead -> "ins-dead"

let ins_elides = function
  | Ins_keep -> false
  | Ins_null | Ins_fresh | Ins_summary_fresh | Ins_dead -> true

type verdict = {
  v_pc : int;
  v_kind : store_kind;
  v_elide : bool;
  v_reason : reason;
  v_ins_elide : bool;  (** the insertion half alone is removable *)
  v_ins_reason : ins_reason;
}

type method_result = {
  mr_class : class_name;
  mr_method : method_name;
  verdicts : verdict list;  (** one per reference-store site, by pc *)
  iterations : int;  (** block visits until the fixed point *)
  invoke_havocs : int;
      (** blanket call havocs applied while reaching the fixed point *)
  mr_summary_dependent : bool;
      (** some callee summary was consulted while analyzing the method:
          its elisions additionally depend on the closed-world assumption
          (no late class loading changes callee behaviour) *)
}

(** Analysis of one method. *)

(** A pending first store of a pairwise swap (§4.3): slot [sp_lo] of the
    array identified by [sp_src] was just overwritten with the element
    loaded from [sp_hi]; the displaced element (provenance [sp_lo]) must
    be re-stored at exactly [sp_hi] before the pending fact dies for the
    pair to be elidable.  The fact only survives across simple
    non-throwing instructions, so a matched pair sits in one basic block
    with nothing in between that could trigger a safepoint — the window
    contract the retrace collector relies on. *)
type swap_pend = {
  sp_src : State.must_src;
  sp_lo : Intval.t;
  sp_hi : Intval.t;
  sp_pc : int;
  sp_elided : bool;
      (** the first store was already elided for another reason, so no
          [Swap_first] verdict should overwrite it *)
}

(** What the instruction at a pc names in the class table, looked up at
    its first visit instead of at every one. *)
type resolved =
  | Unresolved
  | Field of (Field_id.t * bool)
      (** a [getfield]/[putfield]'s field, and whether it holds a
          reference *)
  | Fresh of (Field_id.t * ty) list
      (** the ids and types of the fields a [new] initializes *)
  | Static of bool  (** a [getstatic]/[putstatic]'s field holds a reference *)
  | Call of (meth * Summary.t option)
      (** an [invoke]'s callee and the summary to apply, or a [spawn]'s
          callee *)

type env = {
  conf : config;
  prog : Jir.Program.t;
  cls : cls;
  meth : meth;
  gen : Intval.Gen.t;
  in_ctor : bool;
  catches_bounds : bool;
      (** §3.6 footnote: methods that catch array-bounds exceptions get no
          array-store elision at all *)
  track_ints : bool;
  move_down : bool;
      (** §4.3 move-down elision, already gated on single-mutator *)
  swap : bool;
      (** §4.3 swap elision, gated on single-mutator, mode [A], and the
          absence of bounds handlers *)
  rearrange : bool;
      (** [move_down || swap]: only then does a value carry a must-source
          or an element provenance, or the state a shift chain, so only
          then can their kills change anything *)
  resolved : resolved array;  (** per pc *)
  mutable swap_pending : swap_pend option;
      (** block-local: reset at block entry, killed by any instruction
          outside the swap-window whitelist *)
  summary_tbl : Summary.table option;
      (** callee summaries; [Some] only when [conf.summaries] *)
  mutable used_summaries : bool;
      (** a summary was consulted on some path through this method *)
  mutable invoke_havocs : int;  (** blanket call havocs applied so far *)
  summary_fresh_sites : (int, unit) Hashtbl.t;
      (** pcs whose allocation symbol was minted for a summary-proven
          fresh return ([Ret_fresh]) rather than a literal [New]:
          insertion-half freshness through them is [Ins_summary_fresh] *)
}

(** Outcome of transferring one instruction. *)
type outcome =
  | Fall of State.t
  | Jump of (int * State.t) list  (** (target pc, state) *)
  | Branch of { taken : int * State.t; fall : State.t }
  | Stop

let int_top = State.Int Intval.top

let field_at env pc (fr : field_ref) : Field_id.t * bool =
  match env.resolved.(pc) with
  | Field f -> f
  | Unresolved | Fresh _ | Static _ | Call _ ->
      let f =
        ( Field_id.of_field_ref env.prog fr,
          Jir.Types.equal_ty (Jir.Program.field_ty env.prog fr) R )
      in
      env.resolved.(pc) <- Field f;
      f

(** The ids and types of class [c]'s declared fields. *)
let declared_fields prog (c : cls) : (Field_id.t * ty) list =
  List.map
    (fun fd ->
      ( Field_id.of_field_ref prog { fclass = c.cname; fname = fd.fd_name },
        fd.fd_ty ))
    c.fields

let fresh_at env pc (cn : class_name) : (Field_id.t * ty) list =
  match env.resolved.(pc) with
  | Fresh fs -> fs
  | Unresolved | Field _ | Static _ | Call _ ->
      let fs = declared_fields env.prog (Jir.Program.get_class env.prog cn) in
      env.resolved.(pc) <- Fresh fs;
      fs

let static_is_ref env pc (fr : field_ref) : bool =
  match env.resolved.(pc) with
  | Static r -> r
  | Unresolved | Field _ | Fresh _ | Call _ ->
      let r = Jir.Types.equal_ty (Jir.Program.static_ty env.prog fr) R in
      env.resolved.(pc) <- Static r;
      r

(** The callee of the call at [pc], with the summary to apply when the
    analysis consults them ([None] for a spawn). *)
let call_at env pc ~spawn (mr : method_ref) : meth * Summary.t option =
  match env.resolved.(pc) with
  | Call c -> c
  | Unresolved | Field _ | Fresh _ | Static _ ->
      let summary =
        match env.summary_tbl with
        | Some tbl when not spawn -> Summary.find tbl mr
        | Some _ | None -> None
      in
      let c = (Jir.Program.get_method env.prog mr, summary) in
      env.resolved.(pc) <- Call c;
      c

(** Entry state (§2.3, §3.4): reference arguments hold their [Arg i]
    symbols (all non-thread-local except a constructor's receiver); integer
    arguments and argument array lengths get fresh constant unknowns; in a
    constructor the receiver's declared fields are null. *)
let entry_state (env : env) : State.t =
  let m = env.meth in
  let rho = Array.make m.max_locals State.Bot in
  let nl = ref (Rset.singleton Refsym.global) in
  let len = ref State.Rmap.empty in
  let sigma = ref Ptmap.empty in
  List.iteri
    (fun i ty ->
      match ty with
      | R ->
          let sym = Refsym.arg i in
          rho.(i) <- State.ref_of (Rset.singleton sym);
          if not (env.in_ctor && i = 0) then nl := Rset.add sym !nl;
          if env.track_ints then
            len :=
              State.Rmap.add sym
                (Intval.of_const_unknown (Intval.Gen.fresh_const env.gen))
                !len
      | I ->
          rho.(i) <-
            (if env.track_ints then
               State.Int
                 (Intval.of_const_unknown (Intval.Gen.fresh_const env.gen))
             else int_top))
    m.params;
  if env.in_ctor then
    List.iter
      (fun fd ->
        let f =
          Field_id.of_field_ref env.prog
            { fclass = env.cls.cname; fname = fd.fd_name }
        in
        let v =
          match fd.fd_ty with
          | R -> State.null_v
          | I -> State.Int (Intval.const 0)
        in
        sigma := Ptmap.add (State.Loc.make (Refsym.arg 0) f) v !sigma)
      env.cls.fields;
  {
    rho;
    stk = [];
    nl = !nl;
    sigma = !sigma;
    len = !len;
    nr = State.Rmap.empty;
    shift = None;
  }

let push_int env i s =
  State.push (if env.track_ints then State.Int i else int_top) s

(** Allocate at [pc]: retire the site's previous most-recent symbol into
    the summary symbol, then bind the fresh [R_pc/A].  With the two-names
    precision ablated, every allocation binds the (non-unique) summary
    name directly. *)
let fresh_alloc env pc (s : State.t) : Refsym.t * State.t =
  if env.conf.two_names then (Refsym.recent pc, State.retire_site s pc)
  else (Refsym.summary pc, s)

(** Field-store verdict (§2.4): every possible receiver is thread-local
    and the field's abstract content is the empty set of references. *)
let field_store_elidable (s : State.t) (objs : Rset.t) (f : Field_id.t) : bool
    =
  Rset.for_all
    (fun ot ->
      (not (Rset.mem ot s.State.nl))
      &&
      match Ptmap.find_opt (State.Loc.make ot f) s.State.sigma with
      | Some (State.Ref { refs; _ }) -> Rset.is_empty refs
      | Some (State.Bot | State.Clash | State.Int _) | None -> false)
    objs

(** Array-store verdict (§3): every possible receiver is thread-local and
    the index provably lies in its null range. *)
let array_store_elidable (s : State.t) (arrs : Rset.t) (ind : Intval.t) : bool
    =
  Rset.for_all
    (fun at ->
      (not (Rset.mem at s.State.nl))
      && Intrange.mem (State.lookup_nr s at) ind
           ~len:(State.lookup_len s (Rset.singleton at)))
    arrs

(** Null-or-same verdict (§4.3 extension): unique thread-local receiver,
    and the value carries the fact that it equals the field's current
    content or that content is null. *)
let null_or_same_elidable env (s : State.t) (objs : Rset.t)
    (value : State.refinfo) (f : Field_id.t) : bool =
  env.conf.null_or_same
  &&
  match Rset.elements objs with
  | [ r ] ->
      Refsym.unique ~in_ctor:env.in_ctor r
      && (not (Rset.mem r s.State.nl))
      && State.Nos.mem (State.Loc.make r f) value.State.nos
  | [] | _ :: _ :: _ -> false

(** Insertion-half verdict for the stored value: provably null (nothing
    to shade), or every reference it may denote is an in-method
    allocation — literal [New] sites, or summary-proven fresh returns,
    which additionally rest on the closed world.  The verdict is about
    the {e value}, so it applies uniformly to field, array and static
    stores (the deletion half of a static store is never elidable, its
    insertion half is). *)
let ins_verdict env (value : State.aval) : ins_reason =
  match value with
  | State.Ref { refs; _ } when Rset.is_empty refs -> Ins_null
  | State.Ref { refs; _ }
    when Rset.for_all
           (fun r ->
             match Refsym.view r with
             | Refsym.Alloc _ -> true
             | Refsym.Global | Refsym.Arg _ -> false)
           refs ->
      if
        Rset.exists
          (fun r ->
            match Refsym.view r with
            | Refsym.Alloc { site; _ } ->
                Hashtbl.mem env.summary_fresh_sites site
            | Refsym.Global | Refsym.Arg _ -> false)
          refs
      then Ins_summary_fresh
      else Ins_fresh
  | State.Ref _ | State.Bot | State.Clash | State.Int _ -> Ins_keep

(** On the branch where a tested value is known null, every null-or-same
    fact it carries implies the named field is currently null: refine σ.
    Sound only for unique, thread-local receivers (no other mutator can
    intervene). *)
let refine_on_null env (s : State.t) (ri : State.refinfo) : State.t =
  if not env.conf.null_or_same then s
  else
    State.Nos.fold
      (fun l (s : State.t) ->
        let r = State.Loc.sym l in
        if Refsym.unique ~in_ctor:env.in_ctor r && not (Rset.mem r s.State.nl)
        then { s with sigma = Ptmap.add l State.null_v s.State.sigma }
        else s)
      ri.nos s

(** Kill the null-or-same facts about field [f] of every receiver: the
    field may have been written.  Only the extension makes such facts. *)
let kill_nos env (s : State.t) (receivers : Rset.t) (f : Field_id.t) : State.t =
  if env.conf.null_or_same then
    State.kill_nos s
      (List.map (fun r -> State.Loc.make r f) (Rset.elements receivers))
  else s

(* ---- calls ------------------------------------------------------------ *)

(** Pop a callee's arguments off the stack, returned in parameter order. *)
let pop_call_args (s : State.t) (params : ty list) :
    State.aval list * State.t =
  List.fold_left
    (fun (args, s) _ty ->
      let v, s = State.pop s in
      (v :: args, s))
    ([], s) params

(** The blanket call havoc (§2.4): every reference argument — and
    everything reachable from one — escapes, and every must-alias fact
    dies.  Shared by [Invoke] (no summary available) and [Spawn] (a
    spawned thread runs concurrently, so summaries never apply). *)
let havoc_call env (s : State.t) (args : State.aval list) : State.t =
  env.invoke_havocs <- env.invoke_havocs + 1;
  let s = State.escape_args s args in
  if env.rearrange then State.kill_all_must_src s else s

let arg_refs (v : State.aval) : Rset.t =
  match v with
  | State.Ref ri -> ri.State.refs
  | State.Bot | State.Clash | State.Int _ -> Rset.empty

(** Summary-aware call transfer: apply the callee's summarized effects to
    the caller state instead of havocking it.

    Receiver candidates of a write through parameter [i] are the σ-closure
    of the argument's references ({!State.reach_closure}): the summary's
    parameter component covers anything reachable from the parameter.
    Writes landing on a non-thread-local receiver escape the written
    value instead (its σ is never consulted); writes with unknown field
    sets degrade to the full havoc escape for all arguments (any of them
    may have been stored into the written objects). *)
let apply_summary env (s : State.t) pc (callee : meth) (sum : Summary.t)
    (args : State.aval array) : State.t =
  let closures = Array.map (fun v -> State.reach_closure s (arg_refs v)) args in
  let shape_refs (s : State.t) (vs : Summary.vshape) : Rset.t =
    let base =
      if vs.Summary.vs_fresh || vs.Summary.vs_global then
        Rset.singleton Refsym.global
      else Rset.empty
    in
    let rs =
      Summary.Iset.fold
        (fun p acc ->
          if p < Array.length closures then Rset.union closures.(p) acc
          else Rset.add Refsym.global acc)
        vs.Summary.vs_params base
    in
    (* a non-thread-local member's reachable set is not fully named by σ *)
    if Rset.exists (fun r -> Rset.mem r s.State.nl) rs then
      Rset.add Refsym.global rs
    else rs
  in
  (* 1. unknown-field writes force the full havoc escape: any argument may
     have been stored into the written objects *)
  let writes_top =
    Array.exists
      (fun (i, v) ->
        sum.Summary.s_params.(i).Summary.ps_writes_top
        && not (Rset.is_empty (arg_refs v)))
      (Array.mapi (fun i v -> (i, v)) args)
  in
  let s = if writes_top then State.escape_args s (Array.to_list args) else s in
  (* 2. per-parameter escapes *)
  let s =
    snd
      (Array.fold_left
         (fun (i, s) v ->
           ( i + 1,
             if sum.Summary.s_params.(i).Summary.ps_escapes then
               State.all_non_tl s (arg_refs v)
             else s ))
         (0, s) args)
  in
  (* 3. per-field writes *)
  let kill_eprov =
    ref
      (writes_top || sum.Summary.s_elems_public
     || sum.Summary.s_calls_unknown)
  in
  let apply_write s i f (w : Summary.write) =
    let receivers = closures.(i) in
    if Rset.is_empty receivers then s
    else begin
      let mapped = shape_refs s w.Summary.w_val in
      (* value stored into an escaped object escapes with it *)
      let s =
        if Rset.exists (fun r -> Rset.mem r s.State.nl) receivers then begin
          (if Field_id.equal f Field_id.elems && not (Rset.is_empty mapped)
           then kill_eprov := true);
          State.all_non_tl s mapped
        end
        else s
      in
      let s = kill_nos env s receivers f in
      let is_elems = Field_id.equal f Field_id.elems in
      (* strong update when the write provably targets the argument object
         itself on every normal return; array elements always merge weakly
         (one element written says nothing about the others) *)
      let strong_sym =
        match Rset.elements (arg_refs args.(i)) with
        | [ r ]
          when (not is_elems) && w.Summary.w_must
               && Refsym.unique ~in_ctor:env.in_ctor r ->
            Some r
        | _ -> None
      in
      let field_is_int =
        (not is_elems)
        && Jir.Types.equal_ty
             (snd (Jir.Program.field_of_id env.prog (f :> int))).fd_ty I
      in
      let update s r =
        if Rset.mem r s.State.nl then s
        else if
          match strong_sym with
          | Some r' -> Refsym.equal r r'
          | None -> false
        then
          let v = if field_is_int then int_top else State.ref_of mapped in
          { s with State.sigma = Ptmap.add (State.Loc.make r f) v s.State.sigma }
        else
          let old = State.lookup_field s r f in
          let merged =
            match old with
            | State.Int _ -> if w.Summary.w_int then int_top else old
            | State.Ref ri ->
                if Rset.is_empty mapped then old
                else State.Ref (State.mk_refinfo (Rset.union ri.State.refs mapped))
            | State.Bot | State.Clash -> State.ref_of mapped
          in
          {
            s with
            State.sigma = Ptmap.add (State.Loc.make r f) merged s.State.sigma;
          }
      in
      let s = Rset.fold (fun r s -> update s r) receivers s in
      (* a possibly-non-null element write at an unknown index empties the
         array's null range *)
      if is_elems && not (Rset.is_empty mapped) then
        Rset.fold
          (fun r s ->
            if Rset.mem r s.State.nl then s
            else { s with State.nr = State.Rmap.remove r s.State.nr })
          receivers s
      else s
    end
  in
  let s =
    snd
      (Array.fold_left
         (fun (i, s) _v ->
           ( i + 1,
             Summary.Fmap.fold
               (fun f w s -> apply_write s i f w)
               sum.Summary.s_params.(i).Summary.ps_writes s ))
         (0, s) args)
  in
  (* 4. statics the callee writes invalidate must-alias facts derived from
     them; everything else survives *)
  let s =
    match sum.Summary.s_statics with
    | _ when not env.rearrange -> s
    | Summary.Sw_top -> State.kill_all_must_src s
    | Summary.Sw_set [] -> s
    | Summary.Sw_set frs ->
        State.kill_must_src s (fun m ->
            List.exists
              (fun (fr : field_ref) ->
                State.equal_must_src m (State.Mstatic (fr.fclass, fr.fname)))
              frs)
  in
  (* 5. element writes to caller-visible arrays kill element provenances
     and any active shift chain (the arrays may alias the must-source) *)
  let s =
    if !kill_eprov && env.rearrange then
      { (State.kill_all_eprov s) with State.shift = None }
    else s
  in
  (* 6. return value *)
  match callee.ret with
  | None -> s
  | Some I -> State.push int_top s
  | Some R -> (
      match sum.Summary.s_ret with
      | Summary.Ret_plain -> State.push State.global_v s
      | Summary.Ret_shape vs -> State.push (State.ref_of (shape_refs s vs)) s
      | Summary.Ret_fresh (cn, fields) -> (
          match Jir.Program.find_class env.prog cn with
          | None -> State.push State.global_v s
          | Some c ->
              (* the callee returns a fresh, unescaped object whose fields
                 it summarized completely: bind a fresh symbol exactly as
                 [New] would, seeded with the captured writes (unlisted
                 reference fields are definitely null) *)
              let sym, s = fresh_alloc env pc s in
              Hashtbl.replace env.summary_fresh_sites pc ();
              let strong = Refsym.unique ~in_ctor:false sym in
              let sigma =
                List.fold_left
                  (fun sg (f, ty) ->
                    let key = State.Loc.make sym f in
                    let fresh_v =
                      match ty with
                      | R ->
                          let refs =
                            match Summary.Fmap.find_opt f fields with
                            | Some (vs, _) -> shape_refs s vs
                            | None -> Rset.empty
                          in
                          State.ref_of refs
                      | I -> (
                          match Summary.Fmap.find_opt f fields with
                          | Some _ -> int_top
                          | None ->
                              if env.track_ints && strong then
                                State.Int (Intval.const 0)
                              else int_top)
                    in
                    let v =
                      if strong then fresh_v
                      else
                        match Ptmap.find_opt key sg, fresh_v with
                        | Some (State.Ref a), State.Ref b ->
                            State.Ref
                              (State.mk_refinfo
                                 (Rset.union a.State.refs b.State.refs))
                        | Some (State.Int _), _ | _, State.Int _ -> int_top
                        | (Some _ | None), v -> v
                    in
                    Ptmap.add key v sg)
                  s.State.sigma (declared_fields env.prog c)
              in
              State.push
                (State.ref_of (Rset.singleton sym))
                { s with State.sigma }))

(** The transfer function: abstract effect of one instruction (§2.4, §3.3),
    plus verdict recording for reference stores.  [record pc kind elide
    reason ins] is called for each store site visit; [ins] is the
    insertion-half verdict for the stored value ([None] re-records a
    deletion verdict for another pc — a swap pair's first store — without
    disturbing that pc's own insertion verdict). *)
let transfer env ~record (s : State.t) (pc : int) (instr : int instr) :
    outcome =
  let track_arrays = env.conf.mode = A in
  (* §4.3 swap: a pending first store survives only across simple,
     non-throwing, non-heap-writing instructions — the safepoint-free
     window contract the retrace collector relies on.  Anything else
     (possible throwers, heap writes, calls, control transfers) kills it;
     the [Aastore] case re-arms it. *)
  let pending = env.swap_pending in
  env.swap_pending <- None;
  (match instr with
  | Iconst _ | Aconst_null | Iload _ | Aload _ | Istore _ | Astore _
  | Iinc _ | Ibin (Add | Sub | Mul) | Ineg | Dup | Pop | Swap | Getstatic _
    ->
      env.swap_pending <- pending
  | Ibin (Div | Rem)
  | Goto _ | If_i _ | If_icmp _ | If_null _ | If_nonnull _ | If_acmp _
  | Putstatic _ | Getfield _ | Putfield _ | New _ | Newarray _ | Aaload
  | Aastore | Iaload | Iastore | Arraylength | Invoke _ | Spawn _ | Return
  | Ireturn | Areturn ->
      ());
  match instr with
  | Iconst n -> Fall (push_int env (Intval.const n) s)
  | Aconst_null -> Fall (State.push State.null_v s)
  | Iload i ->
      let v =
        match State.local s i with
        | State.Int _ as v when env.track_ints -> v
        | State.Int _ | State.Bot | State.Clash -> int_top
        | State.Ref _ -> int_top
      in
      Fall (State.push v s)
  | Aload i ->
      let v =
        match State.local s i with
        | State.Ref _ as v -> v
        | State.Bot | State.Clash | State.Int _ -> State.global_v
      in
      Fall (State.push v s)
  | Istore i ->
      let v, s = State.pop s in
      let v = match v with State.Int _ -> v | _ -> int_top in
      Fall (State.set_local s i v)
  | Astore i ->
      let v, s = State.pop s in
      let v = match v with State.Ref _ -> v | _ -> State.global_v in
      Fall (State.set_local s i v)
  | Iinc (i, d) ->
      let v =
        match State.local s i with
        | State.Int iv when env.track_ints -> State.Int (Intval.add_const d iv)
        | State.Int _ | State.Bot | State.Clash | State.Ref _ -> int_top
      in
      Fall (State.set_local s i v)
  | Ibin op ->
      let b, s = State.pop_int s in
      let a, s = State.pop_int s in
      Fall (push_int env (Intval.binop op a b) s)
  | Ineg ->
      let a, s = State.pop_int s in
      Fall (push_int env (Intval.neg a) s)
  | Dup ->
      let v, s' = State.pop s in
      ignore s';
      Fall (State.push v s)
  | Pop ->
      let _, s = State.pop s in
      Fall s
  | Swap ->
      let a, s = State.pop s in
      let b, s = State.pop s in
      Fall (State.push b (State.push a s))
  | Goto l -> Jump [ (l, s) ]
  | If_i (_, l) ->
      let _, s = State.pop_int s in
      Branch { taken = (l, s); fall = s }
  | If_icmp (_, l) ->
      let _, s = State.pop_int s in
      let _, s = State.pop_int s in
      Branch { taken = (l, s); fall = s }
  | If_null l ->
      let ri, s = State.pop_ref s in
      Branch { taken = (l, refine_on_null env s ri); fall = s }
  | If_nonnull l ->
      let ri, s = State.pop_ref s in
      Branch { taken = (l, s); fall = refine_on_null env s ri }
  | If_acmp (_, l) ->
      let _, s = State.pop_ref s in
      let _, s = State.pop_ref s in
      Branch { taken = (l, s); fall = s }
  | Getstatic fr ->
      if static_is_ref env pc fr then
        (* the loaded value is exactly the static's current content: a
           must-alias source for the §4.3 rearrangement extensions *)
        let msrc =
          if env.rearrange then Some (State.Mstatic (fr.fclass, fr.fname))
          else None
        in
        Fall
          (State.push
             (State.Ref (State.mk_refinfo ?msrc (Rset.singleton Refsym.global)))
             s)
      else Fall (push_int env Intval.top s)
  | Putstatic fr ->
      let v, s = State.pop s in
      if static_is_ref env pc fr then begin
        (* static stores always escape the value and always need their
           deletion half (the receiver is GlobalRef, the overwritten
           value unknowable); the insertion half judges the stored value
           and may still go *)
        record pc Static_store false Keep (Some (ins_verdict env v));
        let s =
          match v with
          | State.Ref { refs; _ } -> State.all_non_tl s refs
          | State.Bot | State.Clash | State.Int _ -> s
        in
        (* the static now holds a different object: must-alias facts
           derived from it are stale *)
        let s =
          if env.rearrange then
            State.kill_must_src s (fun m ->
                State.equal_must_src m (State.Mstatic (fr.fclass, fr.fname)))
          else s
        in
        Fall s
      end
      else Fall s
  | Getfield fr ->
      let obj, s = State.pop_ref s in
      let f, is_ref = field_at env pc fr in
      if is_ref then begin
        let ri = State.lookup_ref_field s obj.refs f in
        let nos =
          match Rset.elements obj.refs with
          | [ r ]
            when env.conf.null_or_same
                 && Refsym.unique ~in_ctor:env.in_ctor r
                 && not (Rset.mem r s.nl) ->
              State.Nos.add (State.Loc.make r f) ri.nos
          | _ -> ri.nos
        in
        Fall (State.push (State.Ref { ri with nos }) s)
      end
      else Fall (push_int env (State.lookup_int_field s obj.refs f) s)
  | Putfield fr ->
      let value, s = State.pop s in
      let obj, s = State.pop_ref s in
      let f, is_ref = field_at env pc fr in
      (* verdict first, against the pre-store state *)
      if is_ref then begin
        let vri =
          match value with
          | State.Ref ri -> ri
          | State.Bot | State.Clash | State.Int _ ->
              State.mk_refinfo (Rset.singleton Refsym.global)
        in
        let ins = Some (ins_verdict env value) in
        if Rset.is_empty obj.refs then
          (* receiver definitely null: the store always raises NPE *)
          record pc Field_store true Dead_code (Some Ins_dead)
        else if field_store_elidable s obj.refs f then
          record pc Field_store true Pre_null_field ins
        else if null_or_same_elidable env s obj.refs vri f then
          record pc Field_store true Null_or_same ins
        else record pc Field_store false Keep ins
      end;
      (* σ update: strong for a unique singleton receiver, weak merge
         otherwise (§2.4) *)
      let store_val =
        match is_ref, value with
        | true, State.Ref _ -> value
        | true, (State.Bot | State.Clash | State.Int _) -> State.global_v
        | false, State.Int _ when env.track_ints -> value
        | false, _ -> int_top
      in
      let s = kill_nos env s obj.refs f in
      let s =
        match Rset.elements obj.refs with
        | [ r ] when Refsym.unique ~in_ctor:env.in_ctor r ->
            { s with sigma = Ptmap.add (State.Loc.make r f) store_val s.sigma }
        | receivers ->
            List.fold_left
              (fun s ot ->
                if Rset.mem ot s.State.nl then s
                else
                  let old = State.lookup_field s ot f in
                  let merged =
                    match old, store_val with
                    | State.Ref a, State.Ref b ->
                        State.Ref
                          (State.mk_refinfo (Rset.union a.refs b.refs))
                    | State.Int a, State.Int b ->
                        State.Int (Intval.merge_flat a b)
                    | _, v -> v
                  in
                  {
                    s with
                    sigma = Ptmap.add (State.Loc.make ot f) merged s.sigma;
                  })
              s receivers
      in
      Fall (State.all_non_tl_cond s ~objs:obj.refs ~value)
  | New cn ->
      let fields = fresh_at env pc cn in
      let sym, s = fresh_alloc env pc s in
      (* the fresh object's fields are zeroed; when the symbol is unique
         this is a strong fact, but for the ablated single-name mode the
         summary also covers older objects, so existing knowledge must be
         kept (union with the empty set is the identity) *)
      let strong = Refsym.unique ~in_ctor:false sym in
      let sigma =
        List.fold_left
          (fun sg (f, ty) ->
            let key = State.Loc.make sym f in
            if (not strong) && Ptmap.mem key sg then sg
            else
              let v =
                match ty with
                | R -> State.null_v
                | I ->
                    if env.track_ints && strong then State.Int (Intval.const 0)
                    else int_top
              in
              Ptmap.add key v sg)
          s.State.sigma fields
      in
      Fall (State.push (State.ref_of (Rset.singleton sym)) { s with sigma })
  | Newarray ety ->
      let n, s = State.pop_int s in
      let sym, s = fresh_alloc env pc s in
      let strong = Refsym.unique ~in_ctor:false sym in
      let elem_val =
        match ety with
        | Elem_ref _ -> State.null_v
        | Elem_int ->
            if env.track_ints && strong then State.Int (Intval.const 0)
            else int_top
      in
      let sigma =
        let key = State.Loc.first sym in
        if (not strong) && Ptmap.mem key s.State.sigma then s.State.sigma
        else Ptmap.add key elem_val s.State.sigma
      in
      let len =
        if not env.track_ints then s.State.len
        else if strong then State.Rmap.add sym n s.State.len
        else
          State.Rmap.update sym
            (function
              | None -> Some n | Some old -> Some (Intval.merge_flat old n))
            s.State.len
      in
      let nr =
        match ety with
        | Elem_ref _ when track_arrays && strong ->
            State.Rmap.add sym (Intrange.of_new_array n) s.State.nr
        | Elem_ref _ | Elem_int -> s.State.nr
      in
      Fall
        (State.push
           (State.ref_of (Rset.singleton sym))
           { s with sigma; len; nr })
  | Aaload ->
      let ind, s = State.pop_int s in
      let arr, s = State.pop_ref s in
      let ri = State.lookup_ref_field s arr.refs Field_id.elems in
      (* remember where the element came from when the array itself is
         must-identified (§4.3 rearrangements) *)
      let eprov =
        match arr.State.msrc with
        | Some m when env.rearrange -> State.loaded m ind
        | Some _ | None -> None
      in
      Fall (State.push (State.Ref { ri with eprov }) s)
  | Aastore ->
      let value, s = State.pop s in
      let ind, s = State.pop_int s in
      let arr, s = State.pop_ref s in
      (* §4.3 move-down: the stored value was loaded from the same
         (must-identified) array one slot above, and the active chain says
         the overwritten slot currently holds null or a value already
         re-stored at a lower index — with a descending-scan collector and
         a single mutator, no snapshot pointer can be lost *)
      let move_down_ok =
        env.move_down
        && (not env.catches_bounds)
        &&
        match arr.State.msrc, value, s.State.shift with
        | ( Some m,
            State.Ref
              {
                eprov =
                  Some { ep_src = m'; ep_idx = idx_v; ep_displaced = false };
                _;
              },
            Some (ms, idx_s) ) ->
            State.equal_must_src m m'
            && State.equal_must_src m ms
            && Intval.equal ind idx_s
            && Intval.equal (Intval.sub idx_v ind) (Intval.const 1)
        | _, _, _ -> false
      in
      let pre_null_ok =
        track_arrays
        && (not env.catches_bounds)
        && array_store_elidable s arr.refs ind
      in
      (* §4.3 swap, second store: a first store is pending and the value
         is exactly the element it displaced, going to exactly the slot
         the first store's value came from.  The displaced provenance
         also witnesses an earlier successful load at [sp_hi], so this
         store provably does not throw — the window cannot stay open. *)
      let swap_close =
        if not env.swap then None
        else
          match pending, arr.State.msrc, value with
          | Some sp, Some m, State.Ref { eprov = Some ep; _ }
            when State.equal_must_src m sp.sp_src
                 && ep.State.ep_displaced
                 && State.equal_must_src ep.State.ep_src sp.sp_src
                 && Intval.equal ep.State.ep_idx sp.sp_lo
                 && Intval.equal ind sp.sp_hi ->
              Some sp
          | _, _, _ -> None
      in
      (* verdict against the pre-store state *)
      (let ins = Some (ins_verdict env value) in
       if Rset.is_empty arr.refs then
         record pc Array_store true Dead_code (Some Ins_dead)
       else if pre_null_ok then record pc Array_store true Pre_null_array ins
       else if move_down_ok then record pc Array_store true Move_down ins
       else
         match swap_close with
         | Some sp ->
             (* both verdicts land in this same transfer, so a visit's
                result is deterministic at the fixed point; [None] keeps
                the first store's own insertion verdict *)
             if not sp.sp_elided then
               record sp.sp_pc Array_store true Swap_first None;
             record pc Array_store true Swap_second ins
         | None -> record pc Array_store false Keep ins);
      (* §4.3 swap, first-store candidate: the stored value is the
         current content of a provably different slot (nonzero constant
         index delta) of the same must-identified array.  The displaced
         element's provenance is flipped to "displaced" below. *)
      let open_pending =
        if (not env.swap) || Option.is_some swap_close then None
        else
          match arr.State.msrc, value with
          | Some m, State.Ref { eprov = Some ep; _ }
            when (not ep.State.ep_displaced)
                 && State.equal_must_src ep.State.ep_src m
                 && (not (Intval.is_top ind))
                 && (match
                       Intval.to_literal (Intval.sub ep.State.ep_idx ind)
                     with
                    | Some d -> d <> 0
                    | None -> false) ->
              Some
                {
                  sp_src = m;
                  sp_lo = ind;
                  sp_hi = ep.State.ep_idx;
                  sp_pc = pc;
                  sp_elided =
                    Rset.is_empty arr.refs || pre_null_ok || move_down_ok;
                }
          | _, _ -> None
      in
      (* shift-chain bookkeeping for the post-store state: a store of
         null through a must-identified array starts a chain (its barrier
         logged the overwritten value, or that value was null); the chain
         store itself advances it; anything else ends it. *)
      let next_shift =
        match arr.State.msrc, value with
        | Some m, State.Ref { refs; _ }
          when Rset.is_empty refs && not (Intval.is_top ind) ->
            Some (m, ind)
        | Some m, State.Ref { eprov = Some { ep_idx = idx_v; _ }; _ }
          when move_down_ok ->
            Some (m, idx_v)
        | _, _ -> None
      in
      (* element provenances: facts about provably untouched slots of the
         must-same array survive; a first swap store displaces the facts
         for its slot; everything else (unknown or other sources may
         alias this array) dies *)
      let s =
        if env.rearrange then
          State.eprov_after_store s ~src:arr.State.msrc ~idx:ind
            ~displace:(Option.is_some open_pending)
        else s
      in
      env.swap_pending <- open_pending;
      let s =
        if next_shift == s.State.shift then s
        else { s with State.shift = next_shift }
      in
      (* element update is always weak (§2.4) *)
      let store_val =
        match value with
        | State.Ref _ -> value
        | State.Bot | State.Clash | State.Int _ -> State.global_v
      in
      let s = kill_nos env s arr.refs Field_id.elems in
      let s =
        List.fold_left
          (fun s at ->
            if Rset.mem at s.State.nl then s
            else
              let old = State.lookup_field s at Field_id.elems in
              let merged =
                match old, store_val with
                | State.Ref a, State.Ref b ->
                    State.Ref (State.mk_refinfo (Rset.union a.refs b.refs))
                | _, v -> v
              in
              { s with sigma = Ptmap.add (State.Loc.first at) merged s.sigma })
          s (Rset.elements arr.refs)
      in
      (* null ranges contract (§3.3) *)
      let s =
        if track_arrays then
          let nr =
            Rset.fold
              (fun at nr ->
                match State.Rmap.find_opt at nr with
                | Some r -> State.Rmap.add at (Intrange.contract r ind) nr
                | None -> nr)
              arr.refs s.State.nr
          in
          { s with nr }
        else s
      in
      Fall (State.all_non_tl_cond s ~objs:arr.refs ~value)
  | Iaload ->
      let _, s = State.pop_int s in
      let arr, s = State.pop_ref s in
      Fall (push_int env (State.lookup_int_field s arr.refs Field_id.elems) s)
  | Iastore ->
      let v, s = State.pop_int s in
      let _, s = State.pop_int s in
      let arr, s = State.pop_ref s in
      let s =
        List.fold_left
          (fun s at ->
            if Rset.mem at s.State.nl then s
            else
              let old =
                State.lookup_int_field s (Rset.singleton at) Field_id.elems
              in
              {
                s with
                State.sigma =
                  Ptmap.add (State.Loc.first at)
                    (State.Int (Intval.merge_flat old v))
                    s.State.sigma;
              })
          s (Rset.elements arr.refs)
      in
      Fall s
  | Arraylength ->
      let arr, s = State.pop_ref s in
      Fall (push_int env (State.lookup_len s arr.refs) s)
  | Invoke mr -> (
      let callee, summary = call_at env pc ~spawn:false mr in
      let args, s = pop_call_args s callee.params in
      match summary with
      | Some sum ->
          env.used_summaries <- true;
          Fall (apply_summary env s pc callee sum (Array.of_list args))
      | None ->
          let s = havoc_call env s args in
          let s =
            match callee.ret with
            | None -> s
            | Some R -> State.push State.global_v s
            | Some I -> State.push int_top s
          in
          Fall s)
  | Spawn mr ->
      (* same argument path as [Invoke], but always the full havoc: the
         spawned thread runs concurrently, so no summary of its
         sequential effects can bound what it does from here on *)
      let callee, _ = call_at env pc ~spawn:true mr in
      let args, s = pop_call_args s callee.params in
      Fall (havoc_call env s args)
  | Return | Ireturn | Areturn -> Stop

(** Run the analysis on one method to its fixed point.
    [single_mutator] gates the §4.3 move-down extension: the caller sets
    it when the whole program contains no [spawn]. *)
let analyze_method ?(conf = default_config) ?(single_mutator = false)
    ?summaries (prog : Jir.Program.t) (cls : cls) (meth : meth) :
    method_result =
  let n = Array.length meth.code in
  let store_pcs =
    (* every reference-store site in the method, for verdict reporting *)
    List.filter_map
      (fun pc ->
        match meth.code.(pc) with
        | Putfield fr when Jir.Types.equal_ty (Jir.Program.field_ty prog fr) R
          ->
            Some (pc, Field_store)
        | Putstatic fr
          when Jir.Types.equal_ty (Jir.Program.static_ty prog fr) R ->
            Some (pc, Static_store)
        | Aastore -> Some (pc, Array_store)
        | _ -> None)
      (List.init n Fun.id)
  in
  if conf.mode = B then
    {
      mr_class = cls.cname;
      mr_method = meth.mname;
      verdicts =
        List.map
          (fun (pc, kind) ->
            {
              v_pc = pc;
              v_kind = kind;
              v_elide = false;
              v_reason = Keep;
              v_ins_elide = false;
              v_ins_reason = Ins_keep;
            })
          store_pcs;
      iterations = 0;
      invoke_havocs = 0;
      mr_summary_dependent = false;
    }
  else begin
    let catches_bounds =
      List.exists
        (fun h ->
          match h.kind with Bounds | Any -> true | Null_deref | Arith -> false)
        meth.handlers
    in
    let move_down = conf.move_down && single_mutator && conf.mode = A in
    let swap =
      conf.swap && single_mutator && conf.mode = A && not catches_bounds
    in
    let env =
      {
        conf;
        prog;
        cls;
        meth;
        gen = Intval.Gen.create ();
        in_ctor = meth.is_constructor;
        catches_bounds;
        track_ints = conf.mode = A;
        move_down;
        swap;
        rearrange = move_down || swap;
        resolved = Array.make n Unresolved;
        swap_pending = None;
        summary_tbl = (if conf.summaries then summaries else None);
        used_summaries = false;
        invoke_havocs = 0;
        summary_fresh_sites = Hashtbl.create 8;
      }
    in
    let cfg = Jir.Cfg.build meth in
    let nb = Jir.Cfg.n_blocks cfg in
    let in_states : State.t option array = Array.make nb None in
    let visits = Array.make nb 0 in
    let queued = Array.make nb false in
    let work = Queue.create () in
    let iterations = ref 0 in
    let verdict_tbl : (int, bool * reason * ins_reason) Hashtbl.t =
      Hashtbl.create 16
    in
    let record pc _kind elide reason ins =
      let ins =
        match ins with
        | Some i -> i
        | None -> (
            (* re-recording another pc's deletion verdict (swap pairing):
               leave that pc's own insertion verdict alone *)
            match Hashtbl.find_opt verdict_tbl pc with
            | Some (_, _, i) -> i
            | None -> Ins_keep)
      in
      if conf.debug then
        Fmt.epr "   verdict %s.%s@@%d: %s (%s) / ins %s (%s)@." cls.cname
          meth.mname pc
          (if elide then "elide" else "keep")
          (string_of_reason reason)
          (if ins_elides ins then "elide" else "keep")
          (string_of_ins_reason ins);
      Hashtbl.replace verdict_tbl pc (elide, reason, ins)
    in
    let enqueue id =
      if not queued.(id) then begin
        queued.(id) <- true;
        Queue.add id work
      end
    in
    let post_block id (s : State.t) =
      let widen = visits.(id) >= conf.max_visits in
      let merged =
        match in_states.(id) with
        | None -> s
        | Some old -> State.merge ~widen ~gen:env.gen old s
      in
      match in_states.(id) with
      | Some old when State.equal old merged -> ()
      | Some _ | None ->
          in_states.(id) <- Some merged;
          enqueue id
    in
    let post_pc pc s = post_block cfg.block_of_pc.(pc) s in
    let process_block id =
      visits.(id) <- visits.(id) + 1;
      match in_states.(id) with
      | None -> ()
      | Some s0 ->
          let b = Jir.Cfg.block cfg id in
          if conf.debug then
            Fmt.epr "@[<v2>-- %s.%s block %d (pc %d..%d) visit %d:@,%a@]@."
              cls.cname meth.mname id b.start_pc b.end_pc visits.(id)
              (State.pp prog) s0;
          (* pending swap facts never cross a block boundary *)
          env.swap_pending <- None;
          let rec go pc s =
            if pc >= b.end_pc then post_pc pc s
            else begin
              (* handler edges: control may leave for the handler from any
                 covered instruction, with an empty operand stack *)
              List.iter
                (fun h ->
                  if pc >= h.from_pc && pc < h.to_pc then
                    post_pc h.target { s with State.stk = [] })
                meth.handlers;
              match transfer env ~record s pc meth.code.(pc) with
              | Fall s -> go (pc + 1) s
              | Jump targets -> List.iter (fun (t, s) -> post_pc t s) targets
              | Branch { taken = t, st; fall } ->
                  post_pc t st;
                  go (pc + 1) fall
              | Stop -> ()
            end
          in
          go b.start_pc s0
    in
    in_states.(0) <- Some (entry_state env);
    enqueue 0;
    while not (Queue.is_empty work) do
      let id = Queue.pop work in
      queued.(id) <- false;
      incr iterations;
      process_block id
    done;
    let verdicts =
      List.map
        (fun (pc, kind) ->
          match Hashtbl.find_opt verdict_tbl pc with
          | Some (elide, reason, ins) ->
              {
                v_pc = pc;
                v_kind = kind;
                v_elide = elide;
                v_reason = reason;
                v_ins_elide = ins_elides ins;
                v_ins_reason = ins;
              }
          | None ->
              (* never visited: unreachable code *)
              {
                v_pc = pc;
                v_kind = kind;
                v_elide = true;
                v_reason = Dead_code;
                v_ins_elide = true;
                v_ins_reason = Ins_dead;
              })
        store_pcs
    in
    {
      mr_class = cls.cname;
      mr_method = meth.mname;
      verdicts;
      iterations = !iterations;
      invoke_havocs = env.invoke_havocs;
      mr_summary_dependent = env.used_summaries;
    }
  end

(** Analyze every method of a program.  With [conf.summaries], the
    summary table is computed here (bottom-up over the call graph) unless
    the caller already has one to share. *)
let analyze_program ?(conf = default_config) ?summaries
    (prog : Jir.Program.t) : method_result list =
  let single_mutator = not (Jir.Program.spawns prog) in
  let summaries =
    match summaries with
    | Some _ as t -> t
    | None -> if conf.summaries then Some (Summary.of_program prog) else None
  in
  List.map
    (fun (c, m) -> analyze_method ~conf ~single_mutator ?summaries prog c m)
    (Jir.Program.all_methods prog)
