(** Symbolic integer values ("IntVals", paper §3.2) and the
    stride-discovery merge procedure (paper Figure 1).

    An IntVal is either ⊤ or a linear combination
    [a·v + k₀·c₀ + … + kₙ·cₙ + b] with {e at most one} term in a {e
    variable unknown} [v] (a value that may differ between states — these
    are invented at control-flow merges to express values that vary with a
    common stride), zero or more terms in {e constant unknowns} [cᵢ]
    (opaque but fixed values, e.g. the length of an argument array), and an
    integer literal [b].

    Values are program ints, which wrap at 62 bits ({!Jir.Types.wrap}):
    the literal [b] is kept wrapped, so a pure literal is exactly the
    value the program computes.  Coefficients wrap at the machine's 63
    bits, which agrees with 62-bit wrapping of the whole value.

    Symbolic arithmetic is performed where it makes sense; anything else
    (products of two symbolic values, division, …) yields ⊤. *)

type t = Top | Lin of lin

and lin = {
  var : (int * int) option;  (** coefficient × variable-unknown id, coeff ≠ 0 *)
  consts : (int * int) list;
      (** coefficient × constant-unknown id; sorted by id, coeffs ≠ 0 *)
  base : int;
}

let top = Top
let zero = Lin { var = None; consts = []; base = 0 }
let const b = Lin { var = None; consts = []; base = Jir.Types.wrap b }

(** Fresh-unknown supply.  Constant unknowns are created per analyzed
    method (argument values, array-length parameters); variable unknowns
    are created during state merges. *)
module Gen = struct
  type t = { mutable next_const : int; mutable next_var : int }

  let create () = { next_const = 0; next_var = 0 }

  let fresh_const g =
    let id = g.next_const in
    g.next_const <- id + 1;
    id

  let fresh_var g =
    let id = g.next_var in
    g.next_var <- id + 1;
    id
end

let of_const_unknown id = Lin { var = None; consts = [ (1, id) ]; base = 0 }
let of_var_unknown id = Lin { var = Some (1, id); consts = []; base = 0 }

let is_top = function Top -> true | Lin _ -> false

(** The literal integer, if the value is a pure literal. *)
let to_literal = function
  | Lin { var = None; consts = []; base } -> Some base
  | Lin _ | Top -> None

let equal_term (k1, x1) (k2, x2) = Int.equal k1 k2 && Int.equal x1 x2

let equal_lin (a : lin) (b : lin) =
  a == b
  || Int.equal a.base b.base
     && Option.equal equal_term a.var b.var
     && List.equal equal_term a.consts b.consts

let equal a b =
  match a, b with
  | Top, Top -> true
  | Lin a, Lin b -> equal_lin a b
  | (Top | Lin _), _ -> false

let pp_term ppf (k, name) =
  if k = 1 then Fmt.string ppf name
  else if k = -1 then Fmt.pf ppf "-%s" name
  else Fmt.pf ppf "%d%s" k name

let pp ppf = function
  | Top -> Fmt.string ppf "⊤"
  | Lin { var; consts; base } ->
      let terms =
        (match var with
        | Some (a, v) -> [ (a, Printf.sprintf "v%d" v) ]
        | None -> [])
        @ List.map (fun (k, c) -> (k, Printf.sprintf "c%d" c)) consts
      in
      if terms = [] then Fmt.int ppf base
      else begin
        Fmt.(list ~sep:(any "+") pp_term) ppf terms;
        if base <> 0 then Fmt.pf ppf "%+d" base
      end

(* ---- linear arithmetic ------------------------------------------------ *)

let merge_consts cs1 cs2 =
  let rec go cs1 cs2 =
    match cs1, cs2 with
    | [], cs | cs, [] -> cs
    | (k1, c1) :: r1, (k2, c2) :: r2 ->
        if c1 < c2 then (k1, c1) :: go r1 cs2
        else if c1 > c2 then (k2, c2) :: go cs1 r2
        else
          let k = k1 + k2 in
          if k = 0 then go r1 r2 else (k, c1) :: go r1 r2
  in
  go cs1 cs2

let add_lin (a : lin) (b : lin) : t =
  let base = Jir.Types.wrap (a.base + b.base) in
  match a.var, b.var with
  | Some (ka, va), Some (kb, vb) when va = vb ->
      let k = ka + kb in
      let var = if k = 0 then None else Some (k, va) in
      Lin { var; consts = merge_consts a.consts b.consts; base }
  | Some _, Some _ -> Top  (* two distinct variable unknowns (§3.2) *)
  | (Some _ as v), None | None, (Some _ as v) ->
      Lin { var = v; consts = merge_consts a.consts b.consts; base }
  | None, None ->
      Lin { var = None; consts = merge_consts a.consts b.consts; base }

let add a b =
  match a, b with Lin a, Lin b -> add_lin a b | (Top | Lin _), _ -> Top

let scale k = function
  | Top -> if k = 0 then const 0 else Top
  | Lin { var; consts; base } ->
      if k = 0 then const 0
      else
        Lin
          {
            var = Option.map (fun (a, v) -> (k * a, v)) var;
            consts = List.map (fun (a, c) -> (k * a, c)) consts;
            base = Jir.Types.wrap (k * base);
          }

let neg v = scale (-1) v
let sub a b = add a (neg b)
let add_const n v = add v (const n)

(** Multiplication: defined when either side is a pure literal. *)
let mul a b =
  match to_literal a, to_literal b with
  | Some ka, _ -> scale ka b
  | None, Some kb -> scale kb a
  | None, None -> Top

(** Binary op evaluation for the abstract interpreter. *)
let binop (op : Jir.Types.ibin) a b =
  match op with
  | Add -> add a b
  | Sub -> sub a b
  | Mul -> mul a b
  | Div | Rem -> (
      (* constant-fold pure literals; anything symbolic is ⊤ *)
      match to_literal a, to_literal b with
      | Some x, Some y when y <> 0 ->
          const (match op with Div -> x / y | _ -> x mod y)
      | _ -> Top)

(** [var_term i] — the variable-unknown term of [i], as (coeff, var id);
    [None] when absent or ⊤. *)
let var_term = function
  | Lin { var; _ } -> var
  | Top -> None

(* [a - b] when the symbolic terms cancel exactly.  It orders the two
   values rather than computing one, so it is not wrapped: the bases are
   62-bit and their difference cannot overflow. *)
let literal_diff a b =
  match a, b with
  | Lin a, Lin b
    when Option.equal equal_term a.var b.var
         && List.equal equal_term a.consts b.consts ->
      Some (a.base - b.base)
  | (Top | Lin _), _ -> None

(** [provably_ge a b] — is [a - b] a non-negative literal?  Symbolic terms
    must cancel exactly for the comparison to be provable. *)
let provably_ge a b =
  match literal_diff a b with Some d -> d >= 0 | None -> false

let provably_gt a b =
  match literal_diff a b with Some d -> d > 0 | None -> false

(** [subst_var i ~v ~by] replaces variable unknown [v] in [i] by the IntVal
    [by] (the paper's substitution application μ[i]). *)
let subst_var i ~v ~by =
  match i with
  | Top -> Top
  | Lin { var = Some (a, v') ; consts; base } when v' = v ->
      add (scale a by) (Lin { var = None; consts; base })
  | Lin _ -> i

(* ---- merging (paper Figure 1) ----------------------------------------- *)

(** A merge context is created per whole-state merge and shared by the
    merges of every integer state component, so that components varying
    with the same stride share the same variable unknown:
    - [u]: stride → generated variable unknown ([U] in the paper);
    - [mu1], [mu2]: substitutions recording what each generated or matched
      variable stands for in each input state ([μ₁], [μ₂]);
    - [widen]: when set, no new variable unknowns are invented and unequal
      values merge straight to ⊤ (termination safety net).

    Most merges never discover a stride, so the three tables are allocated
    at the first write; until then every lookup misses. *)
module Ctx = struct
  type tables = {
    u : (int, int) Hashtbl.t;
    mu1 : (int, t) Hashtbl.t;
    mu2 : (int, t) Hashtbl.t;
  }

  type ctx = { gen : Gen.t; widen : bool; mutable tables : tables option }

  let create ?(widen = false) gen = { gen; widen; tables = None }

  let tables ctx =
    match ctx.tables with
    | Some t -> t
    | None ->
        let t =
          {
            u = Hashtbl.create 4;
            mu1 = Hashtbl.create 4;
            mu2 = Hashtbl.create 4;
          }
        in
        ctx.tables <- Some t;
        t

  (* μ₁ ([first]) or μ₂; [swapped] exchanges their roles (Figure 1,
     lines 8-9) *)
  let mu ~swapped ~first t = if Bool.equal first swapped then t.mu2 else t.mu1

  let find_u ctx d =
    match ctx.tables with None -> None | Some t -> Hashtbl.find_opt t.u d

  let find_mu ctx ~swapped ~first v =
    match ctx.tables with
    | None -> None
    | Some t -> Hashtbl.find_opt (mu ~swapped ~first t) v

  let set_u ctx d v = Hashtbl.replace (tables ctx).u d v

  let set_mu ctx ~swapped ~first v i =
    Hashtbl.replace (mu ~swapped ~first (tables ctx)) v i
end

(** [match_ i1 i2] (paper's [match]): [i1] has variable term [a₁·v₁];
    returns the IntVal [s] with [i1[v₁ := s] = i2], when one exists.  The
    paper states the case where [i2] has a variable term [a₁·v₂] with the
    same coefficient, giving [s = v₂ + constant].  We additionally allow
    [i2] with {e no} variable term, giving a constant [s] — required for
    the paper's own motivating example: when a loop head generalizes a
    counter from [0] to a fresh unknown [v], already-recorded successor
    states still hold the constant [0], and their merge [merge(v, 0)] must
    produce [v] with [μ₂(v) = 0] rather than ⊤. *)
let match_ (i1 : lin) (i2 : lin) : t option =
  match i1.var with
  | None -> None
  | Some (a1, _) -> (
      let v2_shape =
        match i2.var with
        | Some (a2, v2) when a2 = a1 -> Some (Some v2)
        | Some _ -> None (* mismatched coefficients *)
        | None -> Some None (* s will be a pure constant expression *)
      in
      match v2_shape with
      | None -> None
      | Some v2 -> (
          let r1 = Lin { i1 with var = None } in
          let r2 = Lin { i2 with var = None } in
          match sub r2 r1 with
          | Top -> None
          | Lin { var = _; consts; base } ->
              let divisible =
                base mod a1 = 0
                && List.for_all (fun (k, _) -> k mod a1 = 0) consts
              in
              if not divisible then None
              else
                let consts = List.map (fun (k, c) -> (k / a1, c)) consts in
                let base = base / a1 in
                Some
                  (Lin
                     { var = Option.map (fun v -> (1, v)) v2; consts; base })))

(** Direct transcription of the paper's Figure 1 ([merge_intvals]).  Merges
    one integer state component appearing as [i1] in the first input state
    and [i2] in the second; [swapped] when the caller exchanged them, and so
    the roles of μ₁ and μ₂ (lines 8-9). *)
let rec merge_swapped ~swapped (ctx : Ctx.ctx) (i1 : t) (i2 : t) : t =
  match i1, i2 with
  | Top, _ | _, Top -> Top
  | Lin l1, Lin l2 ->
      if equal_lin l1 l2 then i1
      else if ctx.widen then Top
      else if Option.is_none (var_term i1) && Option.is_some (var_term i2)
      then
        (* line 8-9: ensure i1 carries the variable term if either does,
           swapping the substitution maps accordingly *)
        merge_swapped ~swapped:(not swapped) ctx i2 i1
      else begin
        let delta = sub i2 i1 in
        match to_literal delta, var_term i1 with
        | Some d, None -> (
            (* lines 11-19: two distinct constants; invent or reuse the
               variable unknown that varies with stride d *)
            match Ctx.find_u ctx d with
            | None ->
                let v = Gen.fresh_var ctx.gen in
                Ctx.set_u ctx d v;
                Ctx.set_mu ctx ~swapped ~first:true v i1;
                Ctx.set_mu ctx ~swapped ~first:false v i2;
                of_var_unknown v
            | Some v -> (
                match Ctx.find_mu ctx ~swapped ~first:true v with
                | Some m1 ->
                    (* d = i1 - μ1(v) must be variable-free (asserted in
                       the paper); return v + d *)
                    let d = sub i1 m1 in
                    if Option.is_none (var_term d) && not (is_top d) then
                      add (of_var_unknown v) d
                    else Top
                | None -> Top))
        | _, Some (a1, v1) when a1 <> 0 -> (
            (* lines 21-31 *)
            match Ctx.find_mu ctx ~swapped ~first:false v1 with
            | Some s ->
                if equal (subst_var i1 ~v:v1 ~by:s) i2 then i1 else Top
            | None -> (
                match match_ l1 l2 with
                | Some s ->
                    Ctx.set_mu ctx ~swapped ~first:false v1 s;
                    i1
                | None -> Top))
        | _, _ -> Top
      end

let merge ctx i1 i2 = merge_swapped ~swapped:false ctx i1 i2

(** Merge without stride discovery: equal values survive, anything else is
    ⊤.  Used where the paper's analysis does not thread a merge context
    (e.g. collapsing [R_id/A] into [R_id/B] at an allocation). *)
let merge_flat i1 i2 = if equal i1 i2 then i1 else Top
