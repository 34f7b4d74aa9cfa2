(** Abstract program states for the barrier-removal analyses.

    A state is the paper's tuple ⟨ρ, σ, NL, stk⟩ (§2.1) extended with the
    array-analysis components Len and NR (§3.2) and, for the null-or-same
    extension (§4.3), per-value "null-or-same-as (r, f)" facts.

    - ρ ([rho]) maps local variables to abstract values;
    - [stk] is the abstract operand stack;
    - NL ([nl]) is the set of reference symbols that may be reachable by
      other threads (non-thread-local);
    - σ ([sigma]) maps (reference symbol, field id) to the abstract value
      the field may contain; a reference field mapped to the empty set of
      symbols is {e definitely null};
    - [len] maps array symbols to their symbolic length;
    - [nr] maps object-array symbols to the subrange of indices known to
      hold null. *)

module Rset = Refsym.Set

(** Abstract locations: a field of the object a symbol names.  A location
    is one int, the symbol shifted past [field_bits] bits that hold the
    field id, so int order is (symbol, field) order and a symbol's
    locations are one contiguous range, starting at its [elems].
    {!Jir.Program.of_program}'s bounds keep every key distinct and
    non-negative. *)
module Loc = struct
  type t = int

  let field_bits = 16
  let field_mask = (1 lsl field_bits) - 1

  let () =
    assert (Jir.Program.max_instance_fields <= field_mask);
    assert (
      (Refsym.recent Jir.Program.max_code_length :> int)
      < max_int lsr field_bits)

  let make (r : Refsym.t) (f : Field_id.t) : t =
    ((r :> int) lsl field_bits) lor (f :> int)

  let sym (l : t) : Refsym.t =
    Refsym.of_code (l lsr field_bits)

  let field (l : t) : Field_id.t = Field_id.of_code (l land field_mask)
  let first (r : Refsym.t) = make r Field_id.elems
  let last (r : Refsym.t) = first r lor field_mask
end

module Rmap = Refsym.Map

(* ---- sharing-preserving traversals -------------------------------------- *)

(* The operations below return their input physically when they change
   nothing, so the fixpoint's equality test and the next merge can stop at
   [==].  Only the allocation differs from the plain [map]s and [merge]s:
   every result is equal to theirs, and every function with a side effect
   (the merge context) is called in the same order. *)

(** [map2_array f a b]: [Array.map2 f a b] (same call order), or [a] when
    every result is the element of [a]. *)
let map2_array f a b =
  let n = Array.length a in
  if Array.length b <> n then invalid_arg "State.map2_array";
  let rec scan i =
    if i = n then a
    else
      let v = f a.(i) b.(i) in
      if v == a.(i) then scan (i + 1)
      else begin
        let c = Array.copy a in
        c.(i) <- v;
        for j = i + 1 to n - 1 do
          c.(j) <- f a.(j) b.(j)
        done;
        c
      end
  in
  scan 0

let map_array f a = map2_array (fun v _ -> f v) a a

(** [List.map2 f l1 l2] from the front, or [l1] when nothing changes. *)
let rec map2_list f l1 l2 =
  match l1, l2 with
  | [], [] -> l1
  | a :: r1, b :: r2 ->
      let a' = f a b in
      let r' = map2_list f r1 r2 in
      if a' == a && r' == r1 then l1 else a' :: r'
  | _ :: _, [] | [], _ :: _ -> invalid_arg "State.map2_list"

let map_list f l = map2_list (fun v _ -> f v) l l

module Lean_rmap = struct
  (** [Rmap.mapi f m], or [m] itself when [f] changes no binding. *)
  let map f m =
    Rmap.fold
      (fun k v acc ->
        let v' = f k v in
        if v' == v then acc else Rmap.add k v' acc)
      m m

  type 'a rev = Nil | Cons of Rmap.key * 'a * 'a rev

  (** [merge f m1 m2]: the union of the bindings, [f k a b] on common keys,
      called in descending key order exactly like [Rmap.merge] calls its
      function; [m1] itself when the result equals it binding for binding.
      Two physically equal maps are merged in ascending order, so [f k a a]
      must not have side effects. *)
  let merge f m1 m2 =
    if m1 == m2 then map (fun k v -> f k v v) m1
    else
      let rec go acc = function
        | Nil -> acc
        | Cons (k, b, rest) ->
            let acc =
              match Rmap.find k m1 with
              | exception Not_found -> Rmap.add k b acc
              | a ->
                  let v = f k a b in
                  if v == a then acc else Rmap.add k v acc
            in
            go acc rest
      in
      go m1 (Rmap.fold (fun k b rest -> Cons (k, b, rest)) m2 Nil)
end

(** [Rset.union], sharing [a] when [b] adds nothing. *)
let union_rset a b =
  if a == b || Rset.is_empty b then a
  else if Rset.is_empty a then b
  else if Rset.subset b a then a
  else Rset.union a b

(** Null-or-same facts: [(r, f)] ∈ [nos v] means that in every concrete
    state, either [v] equals the current content of field [f] of the object
    named [r], or that content is null.  Either disjunct makes an SATB
    barrier for [r.f ← v] unnecessary (§4.3).  Facts are killed eagerly
    (from every abstract value in the state) whenever the location may be
    written, so a surviving fact always refers to the current content. *)
module Nos = Set.Make (Int)

(** Must-alias value sources, for the §4.3 array-rearrangement extension:
    two values carrying the same source are {e the same concrete
    reference}.  Currently only static fields are tracked (enough for the
    delete-by-shift idiom over a program-global array); the type is a
    variant so finer sources can be added. *)
type must_src = Mstatic of Jir.Types.class_name * Jir.Types.field_name

let equal_must_src (Mstatic (c1, f1)) (Mstatic (c2, f2)) =
  String.equal c1 c2 && String.equal f1 f2

(** Element provenance, for the §4.3 rearrangement (move-down and swap)
    extensions: the value was loaded from the array identified by
    [ep_src] at index [ep_idx].  While [ep_displaced] is false, no store
    to that array may have touched the slot since, so the value still
    {e is} the current content of [ep_src\[ep_idx\]].  A {e displaced}
    provenance (swap analysis) instead means the slot was just
    overwritten by the first store of a pending swap: the value is no
    longer in the array, but is known to be the unique element displaced
    from [ep_idx].  The index is never ⊤: {!loaded} refuses one, and
    every other provenance is derived from one it built. *)
type eprov = { ep_src : must_src; ep_idx : Intval.t; ep_displaced : bool }

let loaded ep_src ep_idx =
  if Intval.is_top ep_idx then None
  else Some { ep_src; ep_idx; ep_displaced = false }

type refinfo = {
  refs : Rset.t;
  nos : Nos.t;
  msrc : must_src option;
      (** this value equals the current content of the source *)
  eprov : eprov option;
}

(** Abstract values: the ⊥ of the RefVal lattice, integer values, or sets
    of reference symbols.  [Clash] covers local-variable slots holding
    different kinds on different paths; the verifier guarantees they are
    never read. *)
type aval = Bot | Clash | Int of Intval.t | Ref of refinfo

type t = {
  rho : aval array;
  stk : aval list;
  nl : Rset.t;
  sigma : aval Ptmap.t;
  len : Intval.t Rmap.t;
  nr : Intrange.t Rmap.t;
  shift : (must_src * Intval.t) option;
      (** active move-down chain (§4.3): every slot of the array
          identified by the source at index ≤ the given one currently
          holds null or a value also stored at a lower index *)
}

let mk_refinfo ?msrc ?eprov ?(nos = Nos.empty) refs =
  { refs; nos; msrc; eprov }

let ref_of refs = Ref (mk_refinfo refs)
let null_v = ref_of Rset.empty
let global_v = ref_of (Rset.singleton Refsym.global)

let pp_aval ppf = function
  | Bot -> Fmt.string ppf "⊥"
  | Clash -> Fmt.string ppf "clash"
  | Int i -> Intval.pp ppf i
  | Ref { refs; _ } ->
      if Rset.is_empty refs then Fmt.string ppf "null" else Rset.pp ppf refs

let pp prog ppf (s : t) =
  Fmt.pf ppf "@[<v>rho: %a@,stk: %a@,NL: %a@,sigma: %a@,len: %a@,nr: %a@]"
    Fmt.(array ~sep:sp pp_aval)
    s.rho
    Fmt.(list ~sep:sp pp_aval)
    s.stk Rset.pp s.nl
    Fmt.(
      list ~sep:sp (fun ppf (l, v) ->
          pf ppf "%a.%a=%a" Refsym.pp (Loc.sym l) (Field_id.pp prog)
            (Loc.field l) pp_aval v))
    (Ptmap.bindings s.sigma)
    Fmt.(
      list ~sep:sp (fun ppf (r, v) ->
          pf ppf "len(%a)=%a" Refsym.pp r Intval.pp v))
    (Rmap.bindings s.len)
    Fmt.(
      list ~sep:sp (fun ppf (r, v) ->
          pf ppf "nr(%a)=%a" Refsym.pp r Intrange.pp v))
    (Rmap.bindings s.nr)

(* ---- equality --------------------------------------------------------- *)

let equal_opt eq a b =
  match a, b with
  | None, None -> true
  | Some x, Some y -> eq x y
  | None, Some _ | Some _, None -> false

let equal_shift (m1, i1) (m2, i2) =
  equal_must_src m1 m2 && Intval.equal i1 i2

let equal_eprov a b =
  equal_must_src a.ep_src b.ep_src
  && Intval.equal a.ep_idx b.ep_idx
  && Bool.equal a.ep_displaced b.ep_displaced

let equal_refinfo a b =
  a == b
  || Rset.equal a.refs b.refs
  && Nos.equal a.nos b.nos
  && equal_opt equal_must_src a.msrc b.msrc
  && equal_opt equal_eprov a.eprov b.eprov

let equal_aval a b =
  a == b
  ||
  match a, b with
  | Bot, Bot | Clash, Clash -> true
  | Int x, Int y -> Intval.equal x y
  | Ref x, Ref y -> equal_refinfo x y
  | (Bot | Clash | Int _ | Ref _), _ -> false

let equal (a : t) (b : t) =
  a == b
  || (a.rho == b.rho
     || Array.length a.rho = Array.length b.rho
        && Array.for_all2 equal_aval a.rho b.rho)
     && (a.stk == b.stk
        || List.length a.stk = List.length b.stk
           && List.for_all2 equal_aval a.stk b.stk)
     && (a.nl == b.nl || Rset.equal a.nl b.nl)
     && Ptmap.equal equal_aval a.sigma b.sigma
     && (a.len == b.len || Rmap.equal Intval.equal a.len b.len)
     && (a.nr == b.nr || Rmap.equal Intrange.equal a.nr b.nr)
     && equal_opt equal_shift a.shift b.shift

(* ---- lookups ---------------------------------------------------------- *)

(** The paper's lookup(σ, r, NL, f): {GlobalRef} for non-thread-local
    references, the recorded abstract value otherwise.  An absent entry
    means the location was never populated on any path reaching here; for
    reference fields we conservatively answer {GlobalRef}. *)
let lookup_field (s : t) (r : Refsym.t) (f : Field_id.t) : aval =
  if Rset.mem r s.nl || Refsym.equal r Refsym.global then global_v
  else
    match Ptmap.find_opt (Loc.make r f) s.sigma with
    | Some v -> v
    | None -> global_v

(** Union of reference-field lookups over a receiver set.  Integer fields
    use {!lookup_int_field}. *)
let lookup_ref_field (s : t) (objs : Rset.t) (f : Field_id.t) : refinfo =
  Rset.fold
    (fun r acc ->
      match lookup_field s r f with
      | Ref ri -> { acc with refs = Rset.union acc.refs ri.refs }
      | Bot -> acc
      | Clash | Int _ -> { acc with refs = Rset.add Refsym.global acc.refs })
    objs (mk_refinfo Rset.empty)

let lookup_int_field (s : t) (objs : Rset.t) (f : Field_id.t) : Intval.t =
  if Rset.is_empty objs then Intval.top
  else
    Rset.fold
      (fun r acc ->
        let v =
          match lookup_field s r f with Int i -> i | Bot | Clash | Ref _ -> Intval.top
        in
        match acc with
        | None -> Some v
        | Some a -> Some (Intval.merge_flat a v))
      objs None
    |> Option.value ~default:Intval.top

(** Array length: sound even for escaped arrays, since lengths are
    immutable. *)
let lookup_len (s : t) (objs : Rset.t) : Intval.t =
  if Rset.is_empty objs then Intval.top
  else
    Rset.fold
      (fun r acc ->
        let v =
          match Rmap.find_opt r s.len with Some l -> l | None -> Intval.top
        in
        match acc with
        | None -> Some v
        | Some a -> Some (Intval.merge_flat a v))
      objs None
    |> Option.value ~default:Intval.top

(** Null range of an array; [Empty] once it may be visible to another
    thread (its elements could be overwritten behind our back). *)
let lookup_nr (s : t) (r : Refsym.t) : Intrange.t =
  if Rset.mem r s.nl then Intrange.Empty
  else
    match Rmap.find_opt r s.nr with Some nr -> nr | None -> Intrange.Empty

(* ---- escape (non-thread-locality) ------------------------------------- *)

(* [seen] extended with [frontier] and every symbol reachable from it
   through σ's entries *)
let rec close (s : t) seen frontier =
  match Rset.choose_opt frontier with
  | None -> seen
  | Some r ->
      let frontier = Rset.remove r frontier in
      if Rset.mem r seen then close s seen frontier
      else
        let seen = Rset.add r seen in
        let reachable =
          Ptmap.fold_range (Loc.first r) (Loc.last r)
            (fun _ v acc ->
              match v with
              | Ref { refs; _ } -> Rset.union refs acc
              | Bot | Clash | Int _ -> acc)
            s.sigma Rset.empty
        in
        close s seen (Rset.union frontier (Rset.diff reachable seen))

(** The paper's AllNonTL(NL, RS, σ): extend NL with [rs] and everything
    transitively reachable from [rs] via σ. *)
let all_non_tl (s : t) (rs : Rset.t) : t =
  let nl = close s s.nl rs in
  if nl == s.nl then s else { s with nl }

(** Every symbol reachable from [rs] through explicit σ entries, [rs]
    included — the universe of objects a callee can reach from an
    argument.  The same walk as {!all_non_tl}, but nothing is marked
    non-thread-local.  Sound because a thread-local symbol's absent σ
    entries denote never-stored (hence initial, null) locations, and
    entries of non-thread-local members only over-approximate. *)
let reach_closure (s : t) (rs : Rset.t) : Rset.t = close s Rset.empty rs

(** AllNonTLCond(NL, RS, val, σ): if any possible receiver is already
    non-thread-local, the stored value (and everything reachable from it)
    escapes. *)
let all_non_tl_cond (s : t) ~(objs : Rset.t) ~(value : aval) : t =
  if Rset.is_empty (Rset.inter objs s.nl) then s
  else
    match value with
    | Ref { refs; _ } -> all_non_tl s refs
    | Bot | Clash | Int _ -> s

(** nAllNonTL over the reference arguments of a call. *)
let escape_args (s : t) (args : aval list) : t =
  let refs =
    List.fold_left
      (fun acc v ->
        match v with
        | Ref { refs; _ } -> Rset.union refs acc
        | Bot | Clash | Int _ -> acc)
      Rset.empty args
  in
  all_non_tl s refs

(* ---- allocation-site symbol recycling (§2.4 newinstance) -------------- *)

(** Substitute [R_site/A → R_site/B] throughout the state: ρ, stk, NL, the
    domain and range of σ, Len, NR and versions — the paper's rngSubst,
    transfer and replS.  Null-or-same facts naming the site are dropped
    (the name is about to denote a different object). *)
let retire_site (s : t) (site : int) : t =
  let a_sym = Refsym.recent site in
  let b_sym = Refsym.summary site in
  let subst_set rs =
    if Rset.mem a_sym rs then Rset.add b_sym (Rset.remove a_sym rs) else rs
  in
  let other_site l = l < Loc.first a_sym || l > Loc.last a_sym in
  let subst_aval = function
    | Ref ri as v ->
        let refs = subst_set ri.refs in
        let nos = Nos.filter other_site ri.nos in
        if refs == ri.refs && nos == ri.nos then v else Ref { ri with refs; nos }
    | (Bot | Clash | Int _) as v -> v
  in
  (* σ keys on R_site/A move to R_site/B, merging with any binding there;
     they are one contiguous key range *)
  let sigma =
    let substituted = Ptmap.map (fun _ -> subst_aval) s.sigma in
    Ptmap.fold_range (Loc.first a_sym) (Loc.last a_sym)
      (fun key v acc ->
        let acc = Ptmap.remove key acc in
        let key = Loc.make b_sym (Loc.field key) in
        match Ptmap.find_opt key acc with
        | None -> Ptmap.add key v acc
        | Some old ->
            let merged =
              match old, v with
              | Ref a, Ref b ->
                  Ref
                    (mk_refinfo
                       ~nos:(Nos.inter a.nos b.nos)
                       (Rset.union a.refs b.refs))
              | Int a, Int b -> Int (Intval.merge_flat a b)
              | Bot, x | x, Bot -> x
              | _ -> Clash
            in
            Ptmap.add key merged acc)
      substituted substituted
  in
  let remap_rmap merge m =
    match Rmap.find_opt a_sym m with
    | None -> m
    | Some v -> (
        let m = Rmap.remove a_sym m in
        match Rmap.find_opt b_sym m with
        | None -> Rmap.add b_sym v m
        | Some old -> Rmap.add b_sym (merge old v) m)
  in
  let rho = map_array subst_aval s.rho in
  let stk = map_list subst_aval s.stk in
  let nl = subst_set s.nl in
  let len = remap_rmap Intval.merge_flat s.len in
  let nr = remap_rmap Intrange.merge_flat s.nr in
  if
    rho == s.rho && stk == s.stk && nl == s.nl && sigma == s.sigma
    && len == s.len && nr == s.nr
  then s
  else { s with rho; stk; nl; sigma; len; nr }

(* ---- merging (§2.2, §3.5) --------------------------------------------- *)

(** Merge null-or-same facts: a fact survives when on {e each} side either
    it was recorded for the value, or the side's σ shows the location
    definitely null — the "or the field is null" disjunct of §4.3. *)
let merge_nos (s1 : t) (s2 : t) (r1 : refinfo) (r2 : refinfo) : Nos.t =
  let candidates =
    if r1.nos == r2.nos || Nos.is_empty r2.nos then r1.nos
    else if Nos.is_empty r1.nos then r2.nos
    else Nos.union r1.nos r2.nos
  in
  let side_ok (s : t) (ri : refinfo) (l : Loc.t) =
    Nos.mem l ri.nos
    || ((not (Rset.mem (Loc.sym l) s.nl))
       &&
       match Ptmap.find_opt l s.sigma with
       | Some (Ref { refs; _ }) -> Rset.is_empty refs
       | Some (Bot | Clash | Int _) | None -> false)
  in
  if Nos.is_empty candidates then candidates
  else Nos.filter (fun c -> side_ok s1 r1 c && side_ok s2 r2 c) candidates

(** Merge must-sources: survives only when identical on both sides. *)
let merge_msrc a b =
  match a, b with
  | Some x, Some y when equal_must_src x y -> a
  | Some _, Some _ | None, _ | _, None -> None

(** Merge element provenances: same array source and same displacement
    status, indices merged as integer state components (they stride with
    loop counters).  A merged index at ⊤ drops the provenance, so no
    index is ever ⊤ and merging a provenance with itself returns it. *)
let merge_eprov ctx a b =
  match a, b with
  | Some e1, Some e2
    when equal_must_src e1.ep_src e2.ep_src
         && Bool.equal e1.ep_displaced e2.ep_displaced -> (
      match Intval.merge ctx e1.ep_idx e2.ep_idx with
      | Intval.Top -> None
      | i -> if i == e1.ep_idx then a else Some { e1 with ep_idx = i })
  | Some _, Some _ | None, _ | _, None -> None

let merge_aval (ctx : Intval.Ctx.ctx) (s1 : t) (s2 : t) (a : aval) (b : aval)
    : aval =
  match a, b with
  | Bot, x | x, Bot -> x
  | Int x, Int y ->
      let z = Intval.merge ctx x y in
      if z == x then a else Int z
  | Ref x, Ref y ->
      let eprov = merge_eprov ctx x.eprov y.eprov in
      let msrc = merge_msrc x.msrc y.msrc in
      let nos = merge_nos s1 s2 x y in
      let refs = union_rset x.refs y.refs in
      if refs == x.refs && nos == x.nos && msrc == x.msrc && eprov == x.eprov
      then a
      else Ref { refs; nos; msrc; eprov }
  | Clash, _ | _, Clash -> Clash
  | Int _, Ref _ | Ref _, Int _ -> Clash

(** Merge two whole states through one shared merge context, so that all
    integer state components (ρ, stk, and NR bounds — §3.5) discover common
    strides.  Raises [Invalid_argument] on operand-stack disagreement,
    which the verifier rules out.

    Returns [s1] itself when the join adds nothing to it, and shares every
    unchanged component and binding otherwise.  The components are merged
    in a fixed order — σ, Len and NR in descending key order, the shift,
    the stack from the top, then ρ from local 0 — because the shared
    context's mutation order decides which variable unknown a stride gets.

    Merging a value with itself never touches the context.  For an
    abstract value it is the identity: no element provenance or shift
    index is ever ⊤, so nothing drops.  That is what lets σ's merge, ρ and
    the stack skip what the two states share physically.  A null range
    merged with itself is not the identity — a [Full (0, ⊤)] bound (the
    range of an array of unknown length) drops to [Empty] — so Len and NR
    keep their full merge. *)
let merge ?(widen = false) ~(gen : Intval.Gen.t) (s1 : t) (s2 : t) : t =
  let ctx = Intval.Ctx.create ~widen gen in
  let mav = merge_aval ctx s1 s2 in
  if List.length s1.stk <> List.length s2.stk then
    invalid_arg "State.merge: operand stack mismatch";
  let sigma = Ptmap.merge (fun _ -> mav) s1.sigma s2.sigma in
  let len = Lean_rmap.merge (fun _ -> Intval.merge ctx) s1.len s2.len in
  let nr =
    let len_of (s : t) r =
      match Rmap.find_opt r s.len with Some l -> l | None -> Intval.top
    in
    Lean_rmap.merge
      (fun r a b ->
        Intrange.merge ctx ~len1:(len_of s1 r) ~len2:(len_of s2 r) a b)
      s1.nr s2.nr
  in
  let shift =
    match s1.shift, s2.shift with
    | Some (m1, i1), Some (m2, i2) when equal_must_src m1 m2 -> (
        match Intval.merge ctx i1 i2 with
        | Intval.Top -> None
        | i -> if i == i1 then s1.shift else Some (m1, i))
    | Some _, Some _ | None, _ | _, None -> None
  in
  let nl = union_rset s1.nl s2.nl in
  (* a slot both states share physically merges to itself *)
  let mav_slot a b = if a == b then a else mav a b in
  let stk = map2_list mav_slot s1.stk s2.stk in
  let rho = map2_array mav_slot s1.rho s2.rho in
  if
    rho == s1.rho && stk == s1.stk && nl == s1.nl && sigma == s1.sigma
    && len == s1.len && nr == s1.nr && shift == s1.shift
  then s1
  else { rho; stk; nl; sigma; len; nr; shift }

(* ---- null-or-same fact invalidation ----------------------------------- *)

(* [map_values f s]: apply [f] to every abstract value of ρ, stk and σ,
   returning [s] itself when [f] changes none. *)
let map_values f (s : t) : t =
  let rho = map_array f s.rho in
  let stk = map_list f s.stk in
  let sigma = Ptmap.map (fun _ -> f) s.sigma in
  if rho == s.rho && stk == s.stk && sigma == s.sigma then s
  else { s with rho; stk; sigma }

(** [kill_nos s locs] removes every null-or-same fact about the locations
    [locs] from every abstract value in the state.  Called whenever a
    location may have been written, so surviving facts always describe the
    current content. *)
let kill_nos (s : t) (locs : Loc.t list) : t =
  if locs = [] then s
  else
    map_values
      (function
        | Ref ri as v ->
            let nos =
              Nos.filter (fun l -> not (List.exists (Int.equal l) locs)) ri.nos
            in
            if nos == ri.nos then v else Ref { ri with nos }
        | (Bot | Clash | Int _) as v -> v)
      s

(** Invalidate must-source-derived facts.  [pred m] selects the sources
    to kill; values lose their [msrc]/[eprov], and the active shift chain
    dies if its source matches. *)
let kill_must_src (s : t) (pred : must_src -> bool) : t =
  let clean = function
    | Ref ri as v -> (
        let msrc =
          match ri.msrc with Some m when pred m -> None | o -> o
        in
        let eprov =
          match ri.eprov with
          | Some { ep_src = m; _ } when pred m -> None
          | o -> o
        in
        if msrc == ri.msrc && eprov == ri.eprov then v
        else Ref { ri with msrc; eprov })
    | (Bot | Clash | Int _) as v -> v
  in
  let s' = map_values clean s in
  match s.shift with
  | Some (m, _) when pred m -> { s' with shift = None }
  | Some _ | None -> s'

(** Kill every must-source fact (conservative barrier for calls, which
    may write any static or array). *)
let kill_all_must_src (s : t) : t = kill_must_src s (fun _ -> true)

(** Kill every element provenance — called after any object-array store,
    since two distinct sources may alias the same concrete array.  (The
    caller re-establishes the shift chain separately when the store
    extended it.) *)
let kill_all_eprov (s : t) : t =
  map_values
    (function
      | Ref ({ eprov = Some _; _ } as ri) -> Ref { ri with eprov = None }
      | (Bot | Clash | Int _ | Ref { eprov = None; _ }) as v -> v)
    s

(** Refine element provenances across an object-array store to index
    [idx] of the array identified by [src].

    A (non-displaced) provenance survives only when its array is
    {e must}-the-same as the stored-to one and its index provably differs
    from [idx] by a nonzero constant — the slot it describes was not
    touched.  Facts about a different or unknown source always die: two
    distinct sources may alias the same concrete array.  Displaced facts
    are consumed by the swap-verdict logic {e before} the store's kill,
    so any still present die here too.

    With [displace], facts whose index provably {e equals} [idx] become
    displaced instead of dying: the store is the first half of a swap,
    and the fact's value is the unique element just pushed out of that
    slot. *)
let eprov_after_store (s : t) ~(src : must_src option) ~(idx : Intval.t)
    ~(displace : bool) : t =
  map_values
    (function
      | Ref ({ eprov = Some ep; _ } as ri) as v -> (
          match src with
          | Some m when equal_must_src ep.ep_src m && not ep.ep_displaced ->
              if displace && Intval.equal ep.ep_idx idx then
                Ref { ri with eprov = Some { ep with ep_displaced = true } }
              else (
                match Intval.to_literal (Intval.sub ep.ep_idx idx) with
                | Some d when d <> 0 -> v
                | Some _ | None -> Ref { ri with eprov = None })
          | Some _ | None -> Ref { ri with eprov = None })
      | (Bot | Clash | Int _ | Ref { eprov = None; _ }) as v -> v)
    s

(* ---- stack and locals helpers ----------------------------------------- *)

exception Analysis_bug of string

let bugf fmt = Fmt.kstr (fun s -> raise (Analysis_bug s)) fmt

let push v s = { s with stk = v :: s.stk }

let pop s =
  match s.stk with
  | v :: stk -> (v, { s with stk })
  | [] -> bugf "abstract stack underflow (verifier should prevent this)"

let pop_int s =
  match pop s with
  | Int i, s -> (i, s)
  | (Bot | Clash), s -> (Intval.top, s)
  | Ref _, _ -> bugf "expected abstract int on stack"

let pop_ref s =
  match pop s with
  | Ref ri, s -> (ri, s)
  | (Bot | Clash), s -> (mk_refinfo (Rset.singleton Refsym.global), s)
  | Int _, _ -> bugf "expected abstract ref on stack"

let set_local s i v =
  if s.rho.(i) == v then s
  else begin
    let rho = Array.copy s.rho in
    rho.(i) <- v;
    { s with rho }
  end

let local s i = s.rho.(i)
