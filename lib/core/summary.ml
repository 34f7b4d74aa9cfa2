(** Interprocedural method summaries (see the mli).

    The summarizer runs a small abstract interpretation per method over a
    deliberately coarse value domain: each value is a set of parameters
    it may equal or be reachable from, a set of classes it may be a fresh
    allocation of, a fresh-but-imprecise flag, and a global flag.  All
    four empty/false means definitely null.  Side effects accumulate in a
    per-method record; because a few transfer results read the
    accumulators (loads from fresh receivers), the per-method fixpoint is
    re-run until the accumulators are stable too. *)

open Jir.Types

module Iset = Set.Make (Int)
module Cset = Set.Make (String)
module Fmap = Field_id.Map

(** Set of (parameter, field) must-written locations. *)
module Pf = Set.Make (struct
  type t = int * Field_id.t

  let compare (p1, f1) (p2, f2) =
    match Int.compare p1 p2 with 0 -> Field_id.compare f1 f2 | c -> c
end)

(* ---- public summary types --------------------------------------------- *)

type vshape = { vs_params : Iset.t; vs_fresh : bool; vs_global : bool }

type write = { w_val : vshape; w_int : bool; w_must : bool }

type param_summary = {
  ps_escapes : bool;
  ps_writes : write Fmap.t;
  ps_writes_top : bool;
}

type ret_shape =
  | Ret_plain
  | Ret_fresh of class_name * (vshape * bool) Fmap.t
  | Ret_shape of vshape

type statics_w = Sw_set of field_ref list | Sw_top

type t = {
  s_params : param_summary array;
  s_ret : ret_shape;
  s_statics : statics_w;
  s_elems_public : bool;
  s_global_heap : bool;
  s_allocates : bool;
  s_spawns : bool;
  s_calls_unknown : bool;
}

let null_shape = { vs_params = Iset.empty; vs_fresh = false; vs_global = false }
let global_shape = { null_shape with vs_global = true }

let equal_vshape a b =
  Iset.equal a.vs_params b.vs_params
  && a.vs_fresh = b.vs_fresh
  && a.vs_global = b.vs_global

let equal_write a b =
  equal_vshape a.w_val b.w_val && a.w_int = b.w_int && a.w_must = b.w_must

let equal_param a b =
  a.ps_escapes = b.ps_escapes
  && a.ps_writes_top = b.ps_writes_top
  && Fmap.equal equal_write a.ps_writes b.ps_writes

let equal_ret a b =
  match a, b with
  | Ret_plain, Ret_plain -> true
  | Ret_fresh (c1, m1), Ret_fresh (c2, m2) ->
      String.equal c1 c2
      && Fmap.equal
           (fun (v1, i1) (v2, i2) -> equal_vshape v1 v2 && i1 = i2)
           m1 m2
  | Ret_shape v1, Ret_shape v2 -> equal_vshape v1 v2
  | (Ret_plain | Ret_fresh _ | Ret_shape _), _ -> false

let equal_statics a b =
  match a, b with
  | Sw_top, Sw_top -> true
  | Sw_set l1, Sw_set l2 -> (
      try List.for_all2 equal_field_ref l1 l2 with Invalid_argument _ -> false)
  | (Sw_top | Sw_set _), _ -> false

let equal a b =
  Array.length a.s_params = Array.length b.s_params
  && Array.for_all2 equal_param a.s_params b.s_params
  && equal_ret a.s_ret b.s_ret
  && equal_statics a.s_statics b.s_statics
  && a.s_elems_public = b.s_elems_public
  && a.s_global_heap = b.s_global_heap
  && a.s_allocates = b.s_allocates
  && a.s_spawns = b.s_spawns
  && a.s_calls_unknown = b.s_calls_unknown

let pure (s : t) =
  (not s.s_elems_public) && (not s.s_global_heap) && (not s.s_spawns)
  && (not s.s_calls_unknown)
  && (match s.s_statics with Sw_set [] -> true | Sw_set _ | Sw_top -> false)
  && Array.for_all
       (fun p ->
         (not p.ps_escapes) && (not p.ps_writes_top) && Fmap.is_empty p.ps_writes)
       s.s_params

let havoc (m : meth) : t =
  {
    s_params =
      Array.of_list
        (List.map
           (fun ty ->
             match ty with
             | R ->
                 { ps_escapes = true; ps_writes = Fmap.empty; ps_writes_top = true }
             | I ->
                 {
                   ps_escapes = false;
                   ps_writes = Fmap.empty;
                   ps_writes_top = false;
                 })
           m.params);
    s_ret = (match m.ret with Some R -> Ret_shape global_shape | _ -> Ret_plain);
    s_statics = Sw_top;
    s_elems_public = true;
    s_global_heap = true;
    s_allocates = true;
    s_spawns = true;
    s_calls_unknown = true;
  }

(** Optimistic starting point for a recursive component's fixpoint: no
    effects at all, definitely-null return. *)
let bottom (m : meth) : t =
  {
    s_params =
      Array.of_list
        (List.map
           (fun _ ->
             { ps_escapes = false; ps_writes = Fmap.empty; ps_writes_top = false })
           m.params);
    s_ret = (match m.ret with Some R -> Ret_shape null_shape | _ -> Ret_plain);
    s_statics = Sw_set [];
    s_elems_public = false;
    s_global_heap = false;
    s_allocates = false;
    s_spawns = false;
    s_calls_unknown = false;
  }

let pp_vshape ppf (v : vshape) =
  if equal_vshape v null_shape then Fmt.string ppf "null"
  else
    Fmt.pf ppf "{%a%s%s}"
      Fmt.(list ~sep:comma int)
      (Iset.elements v.vs_params)
      (if v.vs_fresh then ";fresh" else "")
      (if v.vs_global then ";glob" else "")

let pp prog ppf (s : t) =
  let pp_param ppf (i, p) =
    Fmt.pf ppf "p%d:%s%s[%a]" i
      (if p.ps_escapes then "esc" else "-")
      (if p.ps_writes_top then "!top" else "")
      Fmt.(
        list ~sep:comma (fun ppf (f, w) ->
            pf ppf "%a%s=%a%s" (Field_id.pp prog) f
              (if w.w_must then "!" else "?")
              pp_vshape w.w_val
              (if w.w_int then "i" else "")))
      (Fmap.bindings p.ps_writes)
  in
  Fmt.pf ppf "@[<h>%a ret=%s%s%s%s%s@]"
    Fmt.(list ~sep:sp pp_param)
    (Array.to_list (Array.mapi (fun i p -> (i, p)) s.s_params))
    (match s.s_ret with
    | Ret_plain -> "plain"
    | Ret_fresh (c, _) -> "fresh:" ^ c
    | Ret_shape v -> Fmt.str "%a" pp_vshape v)
    (match s.s_statics with
    | Sw_top -> " statics:top"
    | Sw_set [] -> ""
    | Sw_set l -> Fmt.str " statics:%d" (List.length l))
    (if s.s_elems_public then " elems" else "")
    (if s.s_global_heap then " gheap" else "")
    (if s.s_calls_unknown then " unk" else "")

(* ---- tables ----------------------------------------------------------- *)

type table = {
  tbl : (Callgraph.node, t) Hashtbl.t;
  mutable havoced : int;
}

let find (t : table) (mr : method_ref) : t option =
  Hashtbl.find_opt t.tbl (mr.mclass, mr.mname)

let n_methods (t : table) = Hashtbl.length t.tbl
let n_havoced (t : table) = t.havoced

(* ---- the per-method summarizer ---------------------------------------- *)

(** Internal value shape; fresh allocations keep their class while
    provably unmixed, so a returned allocation can become {!Ret_fresh}. *)
type sv = {
  params : Iset.t;
  fresh : Cset.t;
  fresh_other : bool;
      (** fresh but imprecise: an array, a callee allocation of unknown
          class, or a value loaded back out of a fresh object *)
  global : bool;
}

let sv_bot =
  { params = Iset.empty; fresh = Cset.empty; fresh_other = false; global = false }

let sv_global = { sv_bot with global = true }

let sv_join a b =
  {
    params = Iset.union a.params b.params;
    fresh = Cset.union a.fresh b.fresh;
    fresh_other = a.fresh_other || b.fresh_other;
    global = a.global || b.global;
  }

let sv_equal a b =
  Iset.equal a.params b.params
  && Cset.equal a.fresh b.fresh
  && a.fresh_other = b.fresh_other
  && a.global = b.global

let sv_is_bot v = sv_equal v sv_bot
let has_fresh v = v.fresh_other || not (Cset.is_empty v.fresh)
let to_vshape v =
  { vs_params = v.params; vs_fresh = has_fresh v; vs_global = v.global }

(** Per-path state: locals, operand stack, and the set of
    (parameter, field) locations written on {e every} path so far. *)
type st = { regs : sv array; stk : sv list; must : Pf.t }

let st_equal a b =
  (try Array.for_all2 sv_equal a.regs b.regs with Invalid_argument _ -> false)
  && (try List.for_all2 sv_equal a.stk b.stk with Invalid_argument _ -> false)
  && Pf.equal a.must b.must

let st_join a b =
  {
    regs = Array.map2 sv_join a.regs b.regs;
    stk =
      (try List.map2 sv_join a.stk b.stk
       with Invalid_argument _ -> List.map (fun _ -> sv_global) a.stk);
    must = Pf.inter a.must b.must;
  }

(** Accumulated whole-method effects.  Every field only grows; [version]
    is bumped on growth so the driver can re-run the state fixpoint until
    the accumulators are stable (a few transfer results read them). *)
type acc = {
  mutable a_escaped : Iset.t;
  mutable a_fresh_escaped : bool;
  a_writes : (int * Field_id.t, sv * bool) Hashtbl.t;
      (** (value shape join, int write?) per param-reachable location *)
  mutable a_writes_top : Iset.t;
  a_fresh : (Field_id.t, sv * bool) Hashtbl.t;
      (** writes into fresh (call-allocated) receivers *)
  mutable a_fresh_top : bool;
  mutable a_statics : statics_w;
  mutable a_elems_global : bool;
  mutable a_global_heap : bool;
  mutable a_allocates : bool;
  mutable a_spawns : bool;
  mutable a_calls_unknown : bool;
  mutable a_ret : sv option;
  mutable a_must_ret : Pf.t option;
  mutable version : int;
}

let acc_create () =
  {
    a_escaped = Iset.empty;
    a_fresh_escaped = false;
    a_writes = Hashtbl.create 16;
    a_writes_top = Iset.empty;
    a_fresh = Hashtbl.create 16;
    a_fresh_top = false;
    a_statics = Sw_set [];
    a_elems_global = false;
    a_global_heap = false;
    a_allocates = false;
    a_spawns = false;
    a_calls_unknown = false;
    a_ret = None;
    a_must_ret = None;
    version = 0;
  }

let bump a = a.version <- a.version + 1

let esc_params (a : acc) (ps : Iset.t) =
  if not (Iset.subset ps a.a_escaped) then begin
    a.a_escaped <- Iset.union ps a.a_escaped;
    bump a
  end

(** The value becomes reachable from another thread (or, for fresh
    components, from the caller other than via the return value). *)
let esc_sv (a : acc) (v : sv) =
  esc_params a v.params;
  if has_fresh v && not a.a_fresh_escaped then begin
    a.a_fresh_escaped <- true;
    bump a
  end

let note_write (a : acc) tbl key (v : sv) ~(int_w : bool) =
  match Hashtbl.find_opt tbl key with
  | None ->
      Hashtbl.replace tbl key (v, int_w);
      bump a
  | Some (old, old_i) ->
      let j = sv_join old v in
      let i = old_i || int_w in
      if not (sv_equal j old && i = old_i) then begin
        Hashtbl.replace tbl key (j, i);
        bump a
      end

let note_static (a : acc) (fr : field_ref) =
  match a.a_statics with
  | Sw_top -> ()
  | Sw_set l ->
      if not (List.exists (equal_field_ref fr) l) then begin
        a.a_statics <-
          Sw_set (List.sort_uniq compare_field_ref (fr :: l));
        bump a
      end

let note_statics_top (a : acc) =
  match a.a_statics with
  | Sw_top -> ()
  | Sw_set _ ->
      a.a_statics <- Sw_top;
      bump a

let note_flag (a : acc) get set =
  if not (get ()) then begin
    set ();
    bump a
  end

let note_ret (a : acc) (v : sv) =
  match a.a_ret with
  | None ->
      a.a_ret <- Some v;
      bump a
  | Some old ->
      let j = sv_join old v in
      if not (sv_equal j old) then begin
        a.a_ret <- Some j;
        bump a
      end

let note_must_ret (a : acc) (m : Pf.t) =
  match a.a_must_ret with
  | None ->
      a.a_must_ret <- Some m;
      bump a
  | Some old ->
      let j = Pf.inter old m in
      if not (Pf.equal j old) then begin
        a.a_must_ret <- Some j;
        bump a
      end

exception Give_up

(** Summarization environment for one method. *)
type senv = {
  prog : Jir.Program.t;
  meth : meth;
  partial : table;  (** summaries computed so far (bottom-up, partial) *)
  acc : acc;
}

let is_ref_field (e : senv) (fr : field_ref) =
  match Jir.Program.find_field e.prog fr with
  | Some fd -> equal_ty fd.fd_ty R
  | None -> true (* unknown: treat conservatively as a reference *)

let is_ref_static (e : senv) (fr : field_ref) =
  match Jir.Program.find_static e.prog fr with
  | Some fd -> equal_ty fd.fd_ty R
  | None -> true

(** Dispatch a write of [v] into field [f] of the objects denoted by
    receiver [rv]: recorded against every parameter component, into the
    fresh accumulator for fresh components, and as a global heap write
    (which escapes the value) for global components.  Returns the updated
    must-set contribution: the location is definitely written when the
    receiver can only be the parameter itself. *)
let dispatch_write (e : senv) (rv : sv) (f : Field_id.t) (v : sv)
    ~(int_w : bool) (must : Pf.t) : Pf.t =
  let a = e.acc in
  Iset.iter (fun q -> note_write a a.a_writes (q, f) v ~int_w) rv.params;
  if has_fresh rv then begin
    note_write a a.a_fresh f v ~int_w;
    (* a parameter or global value captured inside a fresh object makes a
       precise fresh return claim unsafe only if that fresh object is
       itself returned or escapes — tracked via [a_fresh_escaped] and the
       return shape, nothing to do here *)
    ()
  end;
  if rv.global then begin
    note_flag a (fun () -> a.a_global_heap) (fun () -> a.a_global_heap <- true);
    if Field_id.equal f Field_id.elems && not int_w then
      note_flag a
        (fun () -> a.a_elems_global)
        (fun () -> a.a_elems_global <- true);
    esc_sv a v
  end;
  (* a value with fresh components stored into a caller-visible object
     becomes caller-reachable: precise fresh returns are off *)
  if has_fresh v && (rv.global || not (Iset.is_empty rv.params)) then
    note_flag a
      (fun () -> a.a_fresh_escaped)
      (fun () -> a.a_fresh_escaped <- true);
  match Iset.elements rv.params with
  | [ q ]
    when (not rv.global) && (not (has_fresh rv)) ->
      Pf.add (q, f) must
  | _ -> must

(** Content of field [f] of the objects denoted by [rv] (reference
    fields).  Reads from parameter-reachable objects stay attributed to
    the parameters (the caller's closure covers their contents); reads
    from fresh receivers replay the accumulated fresh writes. *)
let read_field (e : senv) (rv : sv) (f : Field_id.t) : sv =
  let a = e.acc in
  let base =
    {
      params = rv.params;
      fresh = Cset.empty;
      fresh_other = has_fresh rv;
      global = rv.global || not (Iset.is_empty rv.params);
    }
  in
  if has_fresh rv then
    let from_fresh =
      if a.a_fresh_top then
        {
          params =
            List.mapi (fun i _ -> i) e.meth.params
            |> List.to_seq |> Iset.of_seq;
          fresh = Cset.empty;
          fresh_other = true;
          global = true;
        }
      else
        match Hashtbl.find_opt a.a_fresh f with
        | Some (v, _) -> { v with fresh = Cset.empty; fresh_other = has_fresh v }
        | None -> sv_bot
    in
    sv_join base from_fresh
  else base

let pop (st : st) : sv * st =
  match st.stk with
  | v :: stk -> (v, { st with stk })
  | [] -> raise Give_up (* malformed stack: bail to the havoc summary *)

let push (v : sv) (st : st) : st = { st with stk = v :: st.stk }

let pop_n (n : int) (st : st) : sv list * st =
  (* returns values in parameter order (args are pushed left-to-right) *)
  let rec go n acc st =
    if n = 0 then (acc, st)
    else
      let v, st = pop st in
      go (n - 1) (v :: acc) st
  in
  go n [] st

(** Map a callee-side shape onto caller-side (this method's) terms: the
    callee's parameters become the corresponding argument shapes, callee
    allocations become imprecise-fresh. *)
let map_shape (args : sv array) (vs : vshape) : sv =
  let base =
    {
      params = Iset.empty;
      fresh = Cset.empty;
      fresh_other = vs.vs_fresh;
      global = vs.vs_global;
    }
  in
  Iset.fold
    (fun p m ->
      if p < Array.length args then sv_join m args.(p) else { m with global = true })
    vs.vs_params base

(** Fold an [Invoke]'s effects through the callee summary; [None] means
    no summary is available and the call is havoc. *)
let apply_call (e : senv) (callee : meth) (summary : t option) (st : st) :
    st =
  let a = e.acc in
  let args_l, st = pop_n (List.length callee.params) st in
  let args = Array.of_list args_l in
  match summary with
  | None ->
      note_flag a
        (fun () -> a.a_calls_unknown)
        (fun () -> a.a_calls_unknown <- true);
      note_statics_top a;
      note_flag a
        (fun () -> a.a_global_heap)
        (fun () -> a.a_global_heap <- true);
      note_flag a
        (fun () -> a.a_elems_global)
        (fun () -> a.a_elems_global <- true);
      Array.iter
        (fun v ->
          esc_sv a v;
          Iset.iter
            (fun q -> note_write a a.a_writes (q, Field_id.elems) sv_global ~int_w:true)
            v.params;
          if not (Iset.subset v.params a.a_writes_top) then begin
            a.a_writes_top <- Iset.union v.params a.a_writes_top;
            bump a
          end)
        args;
      let st =
        match callee.ret with
        | Some R -> push sv_global st
        | Some I -> push sv_bot st
        | None -> st
      in
      st
  | Some s ->
      (* unknown-field writes: any argument could have been stored into
         the written objects, so everything passed escapes together *)
      let writes_top_applies =
        Array.exists
          (fun (i, v) -> s.s_params.(i).ps_writes_top && not (sv_is_bot v))
          (Array.mapi (fun i v -> (i, v)) args)
      in
      if writes_top_applies then
        Array.iteri
          (fun i v ->
            esc_sv a v;
            if s.s_params.(i).ps_writes_top && not (Iset.subset v.params a.a_writes_top)
            then begin
              a.a_writes_top <- Iset.union v.params a.a_writes_top;
              bump a
            end;
            if s.s_params.(i).ps_writes_top && has_fresh v then
              note_flag a (fun () -> a.a_fresh_top) (fun () -> a.a_fresh_top <- true))
          args;
      (* escapes *)
      Array.iteri
        (fun i v -> if s.s_params.(i).ps_escapes then esc_sv a v)
        args;
      (* per-field writes, mapped into our terms *)
      let must = ref st.must in
      Array.iteri
        (fun i rv ->
          Fmap.iter
            (fun f (w : write) ->
              let v = map_shape args w.w_val in
              let must' =
                dispatch_write e rv f v ~int_w:w.w_int
                  (if w.w_must then !must else Pf.empty)
              in
              if w.w_must then must := must')
            s.s_params.(i).ps_writes)
        args;
      (* inherited whole-program effects *)
      (match s.s_statics with
      | Sw_top -> note_statics_top a
      | Sw_set l -> List.iter (note_static a) l);
      if s.s_global_heap then
        note_flag a (fun () -> a.a_global_heap) (fun () -> a.a_global_heap <- true);
      if s.s_elems_public then
        note_flag a (fun () -> a.a_elems_global) (fun () -> a.a_elems_global <- true);
      if s.s_allocates then
        note_flag a (fun () -> a.a_allocates) (fun () -> a.a_allocates <- true);
      if s.s_spawns then
        note_flag a (fun () -> a.a_spawns) (fun () -> a.a_spawns <- true);
      if s.s_calls_unknown then
        note_flag a
          (fun () -> a.a_calls_unknown)
          (fun () -> a.a_calls_unknown <- true);
      (* return value *)
      let st = { st with must = !must } in
      let st =
        match callee.ret, s.s_ret with
        | None, _ -> st
        | Some I, _ -> push sv_bot st
        | Some R, Ret_fresh (cn, fields) ->
            (* fold the returned object's captured writes into our fresh
               accumulator so a pass-through return stays precise *)
            Fmap.iter
              (fun f (vs, int_w) ->
                note_write a a.a_fresh f (map_shape args vs) ~int_w)
              fields;
            push { sv_bot with fresh = Cset.singleton cn } st
        | Some R, Ret_shape vs -> push (map_shape args vs) st
        | Some R, Ret_plain -> push sv_global st
      in
      st

(** Transfer of one instruction.  Mirrors the main analysis's control
    structure but over the coarse summary domain. *)
type outcome =
  | Fall of st
  | Jump of (int * st) list
  | Branch of { taken : int * st; fall : st }
  | Stop

let transfer (e : senv) (st : st) (instr : int instr) : outcome =
  let a = e.acc in
  match instr with
  | Iconst _ -> Fall (push sv_bot st)
  | Aconst_null -> Fall (push sv_bot st)
  | Iload _ -> Fall (push sv_bot st)
  | Aload i ->
      Fall (push (if i < Array.length st.regs then st.regs.(i) else sv_global) st)
  | Istore i | Astore i ->
      let v, st = pop st in
      if i < Array.length st.regs then begin
        let regs = Array.copy st.regs in
        regs.(i) <- v;
        Fall { st with regs }
      end
      else Fall st
  | Iinc _ -> Fall st
  | Ibin _ ->
      let _, st = pop st in
      let _, st = pop st in
      Fall (push sv_bot st)
  | Ineg ->
      let _, st = pop st in
      Fall (push sv_bot st)
  | Dup ->
      let v, _ = pop st in
      Fall (push v st)
  | Pop ->
      let _, st = pop st in
      Fall st
  | Swap ->
      let x, st = pop st in
      let y, st = pop st in
      Fall (push y (push x st))
  | Goto l -> Jump [ (l, st) ]
  | If_i (_, l) ->
      let _, st = pop st in
      Branch { taken = (l, st); fall = st }
  | If_icmp (_, l) ->
      let _, st = pop st in
      let _, st = pop st in
      Branch { taken = (l, st); fall = st }
  | If_null l | If_nonnull l ->
      let _, st = pop st in
      Branch { taken = (l, st); fall = st }
  | If_acmp (_, l) ->
      let _, st = pop st in
      let _, st = pop st in
      Branch { taken = (l, st); fall = st }
  | Getstatic fr ->
      Fall (push (if is_ref_static e fr then sv_global else sv_bot) st)
  | Putstatic fr ->
      let v, st = pop st in
      note_static a fr;
      if is_ref_static e fr then esc_sv a v;
      Fall st
  | Getfield fr ->
      let rv, st = pop st in
      let f = Field_id.of_field_ref e.prog fr in
      if is_ref_field e fr then Fall (push (read_field e rv f) st)
      else Fall (push sv_bot st)
  | Putfield fr ->
      let v, st = pop st in
      let rv, st = pop st in
      let f = Field_id.of_field_ref e.prog fr in
      let int_w = not (is_ref_field e fr) in
      let v = if int_w then sv_bot else v in
      let must = dispatch_write e rv f v ~int_w st.must in
      Fall { st with must }
  | New cn ->
      note_flag a (fun () -> a.a_allocates) (fun () -> a.a_allocates <- true);
      Fall (push { sv_bot with fresh = Cset.singleton cn } st)
  | Newarray _ ->
      note_flag a (fun () -> a.a_allocates) (fun () -> a.a_allocates <- true);
      let _, st = pop st in
      Fall (push { sv_bot with fresh_other = true } st)
  | Aaload ->
      let _, st = pop st in
      let rv, st = pop st in
      Fall (push (read_field e rv Field_id.elems) st)
  | Aastore ->
      let v, st = pop st in
      let _, st = pop st in
      let rv, st = pop st in
      let must = dispatch_write e rv Field_id.elems v ~int_w:false st.must in
      Fall { st with must }
  | Iaload ->
      let _, st = pop st in
      let _, st = pop st in
      Fall (push sv_bot st)
  | Iastore ->
      let _, st = pop st in
      let _, st = pop st in
      let rv, st = pop st in
      let must = dispatch_write e rv Field_id.elems sv_bot ~int_w:true st.must in
      Fall { st with must }
  | Arraylength ->
      let _, st = pop st in
      Fall (push sv_bot st)
  | Invoke mr -> (
      match Jir.Program.find_method e.prog mr with
      | Some callee -> Fall (apply_call e callee (find e.partial mr) st)
      | None ->
          (* unlinkable target: treat as a havoc call with no arguments we
             can see — escape the whole reachable state conservatively by
             topping every parameter *)
          note_flag a
            (fun () -> a.a_calls_unknown)
            (fun () -> a.a_calls_unknown <- true);
          raise Give_up)
  | Spawn mr -> (
      note_flag a (fun () -> a.a_spawns) (fun () -> a.a_spawns <- true);
      match Jir.Program.find_method e.prog mr with
      | Some callee ->
          let args, st = pop_n (List.length callee.params) st in
          List.iter (esc_sv a) args;
          Fall st
      | None -> raise Give_up)
  | Return | Ireturn ->
      (match instr with
      | Ireturn -> ignore (pop st)
      | _ -> ());
      note_must_ret a st.must;
      Stop
  | Areturn ->
      let v, st' = pop st in
      ignore st';
      note_ret a v;
      note_must_ret a st.must;
      Stop

(** One full dataflow pass over the method with the current accumulators;
    the caller re-runs it until the accumulators stop growing. *)
let run_pass (e : senv) : unit =
  let m = e.meth in
  let cfg = Jir.Cfg.build m in
  let nb = Jir.Cfg.n_blocks cfg in
  let in_states : st option array = Array.make nb None in
  let visits = Array.make nb 0 in
  let queued = Array.make nb false in
  let work = Queue.create () in
  let enqueue id =
    if not queued.(id) then begin
      queued.(id) <- true;
      Queue.add id work
    end
  in
  let post_block id (s : st) =
    let merged =
      match in_states.(id) with None -> s | Some old -> st_join old s
    in
    match in_states.(id) with
    | Some old when st_equal old merged -> ()
    | Some _ | None ->
        in_states.(id) <- Some merged;
        enqueue id
  in
  let post_pc pc s = post_block cfg.block_of_pc.(pc) s in
  let entry =
    let regs = Array.make m.max_locals sv_bot in
    List.iteri
      (fun i ty ->
        match ty with
        | R -> regs.(i) <- { sv_bot with params = Iset.singleton i }
        | I -> ())
      m.params;
    { regs; stk = []; must = Pf.empty }
  in
  in_states.(0) <- Some entry;
  enqueue 0;
  while not (Queue.is_empty work) do
    let id = Queue.pop work in
    queued.(id) <- false;
    visits.(id) <- visits.(id) + 1;
    if visits.(id) > 512 then raise Give_up;
    match in_states.(id) with
    | None -> ()
    | Some s0 ->
        let b = Jir.Cfg.block cfg id in
        let rec go pc s =
          if pc >= b.end_pc then post_pc pc s
          else begin
            List.iter
              (fun h ->
                if pc >= h.from_pc && pc < h.to_pc then
                  post_pc h.target { s with stk = [] })
              m.handlers;
            match transfer e s m.code.(pc) with
            | Fall s -> go (pc + 1) s
            | Jump targets -> List.iter (fun (t, s) -> post_pc t s) targets
            | Branch { taken = t, ts; fall } ->
                post_pc t ts;
                go (pc + 1) fall
            | Stop -> ()
          end
        in
        go b.start_pc s0
  done

(** Finalize the accumulators into a public summary. *)
let finalize (e : senv) : t =
  let a = e.acc in
  let m = e.meth in
  (* once some fresh object is caller-reachable, writes into fresh
     receivers are caller-visible after all *)
  if a.a_fresh_escaped then begin
    Hashtbl.iter
      (fun f ((v : sv), _) ->
        esc_params a v.params;
        a.a_global_heap <- true;
        if Field_id.equal f Field_id.elems then a.a_elems_global <- true)
      a.a_fresh;
    if a.a_fresh_top then begin
      a.a_global_heap <- true;
      a.a_elems_global <- true;
      a.a_escaped <-
        Iset.union a.a_escaped
          (List.mapi (fun i _ -> i) m.params |> List.to_seq |> Iset.of_seq)
    end
  end;
  let must_ret =
    match a.a_must_ret with
    | Some s -> s
    | None ->
        (* no normal return: every recorded location is vacuously a
           must-write *)
        Hashtbl.fold (fun k _ s -> Pf.add k s) a.a_writes Pf.empty
  in
  let params =
    Array.of_list
      (List.mapi
         (fun i _ty ->
           let ps_writes =
             Hashtbl.fold
               (fun (q, f) ((v : sv), int_w) m ->
                 if q = i then
                   Fmap.add f
                     {
                       w_val = to_vshape v;
                       w_int = int_w;
                       w_must = Pf.mem (q, f) must_ret;
                     }
                     m
                 else m)
               a.a_writes Fmap.empty
           in
           {
             ps_escapes = Iset.mem i a.a_escaped;
             ps_writes;
             ps_writes_top = Iset.mem i a.a_writes_top;
           })
         m.params)
  in
  let ret =
    match m.ret with
    | None | Some I -> Ret_plain
    | Some R -> (
        match a.a_ret with
        | None -> Ret_shape null_shape (* no reachable Areturn *)
        | Some v ->
            if
              Iset.is_empty v.params && (not v.global) && (not v.fresh_other)
              && Cset.cardinal v.fresh = 1
              && (not a.a_fresh_escaped)
              && not a.a_fresh_top
            then
              let cn = Cset.choose v.fresh in
              let fields =
                Hashtbl.fold
                  (fun f ((w : sv), int_w) m ->
                    Fmap.add f (to_vshape w, int_w) m)
                  a.a_fresh Fmap.empty
              in
              Ret_fresh (cn, fields)
            else Ret_shape (to_vshape v))
  in
  {
    s_params = params;
    s_ret = ret;
    s_statics = a.a_statics;
    s_elems_public = a.a_elems_global;
    s_global_heap = a.a_global_heap;
    s_allocates = a.a_allocates;
    s_spawns = a.a_spawns;
    s_calls_unknown = a.a_calls_unknown;
  }

let summarize (prog : Jir.Program.t) (partial : table) (node : Callgraph.node)
    : t =
  let cn, mn = node in
  let m = Jir.Program.get_method prog { mclass = cn; mname = mn } in
  let e = { prog; meth = m; partial; acc = acc_create () } in
  try
    (* re-run until the accumulators are stable: some transfer results
       (loads from fresh receivers, composed fresh-field merges) read
       them, so a single pass can under-report *)
    let rec stabilize round =
      if round > 8 then raise Give_up;
      let v0 = e.acc.version in
      run_pass e;
      if e.acc.version <> v0 then stabilize (round + 1)
    in
    stabilize 1;
    finalize e
  with Give_up -> havoc m

let of_program ?(fixpoint_bound = 12) (prog : Jir.Program.t) : table =
  let cg = Callgraph.build prog in
  let table = { tbl = Hashtbl.create 64; havoced = 0 } in
  let set n s = Hashtbl.replace table.tbl n s in
  let get n = Hashtbl.find table.tbl n in
  let meth_of (cn, mn) =
    Jir.Program.get_method prog { mclass = cn; mname = mn }
  in
  List.iter
    (fun (scc : Callgraph.scc) ->
      if not scc.recursive then
        List.iter (fun n -> set n (summarize prog table n)) scc.members
      else begin
        List.iter (fun n -> set n (bottom (meth_of n))) scc.members;
        let rec iterate round =
          if round > fixpoint_bound then begin
            (* widen: past the bound the whole component degrades to the
               blanket havoc summary (the pre-summary behaviour) *)
            List.iter (fun n -> set n (havoc (meth_of n))) scc.members;
            table.havoced <- table.havoced + List.length scc.members
          end
          else begin
            let changed =
              List.fold_left
                (fun changed n ->
                  let s' = summarize prog table n in
                  if equal s' (get n) then changed
                  else begin
                    set n s';
                    true
                  end)
                false scc.members
            in
            if changed then iterate (round + 1)
          end
        in
        iterate 1
      end)
    (Callgraph.sccs_bottom_up cg);
  table
