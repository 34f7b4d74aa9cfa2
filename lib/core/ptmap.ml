(** Maps over non-negative ints as big-endian Patricia trees (Okasaki &
    Gill, "Fast Mergeable Integer Maps", 1998).

    A key set has exactly one tree, and a branch's left subtree holds the
    keys with its branching bit clear, so in-order is ascending key order.
    Every operation returns its input physically when it changes nothing;
    {!merge} and {!equal} stop at physically equal subtrees, so merging or
    comparing two maps costs what they differ by, not what they hold. *)

type 'a t =
  | Empty
  | Leaf of int * 'a
  | Branch of int * int * 'a t * 'a t
      (** prefix (the key bits above the branching bit), branching bit,
          subtree with that bit clear, subtree with it set *)

let empty = Empty

let zero_bit k m = k land m = 0

(* the bits of [k] above [m]; [2 * m - 1] wraps to [max_int] for the
   highest bit a non-negative int has, which is still right *)
let mask k m = k land lnot ((2 * m) - 1)
let match_prefix k p m = mask k m = p

let highest_bit x =
  let x = x lor (x lsr 1) in
  let x = x lor (x lsr 2) in
  let x = x lor (x lsr 4) in
  let x = x lor (x lsr 8) in
  let x = x lor (x lsr 16) in
  let x = x lor (x lsr 32) in
  x - (x lsr 1)

(* two trees whose prefixes [p0] and [p1] differ *)
let join p0 t0 p1 t1 =
  let m = highest_bit (p0 lxor p1) in
  if zero_bit p0 m then Branch (mask p0 m, m, t0, t1)
  else Branch (mask p0 m, m, t1, t0)

(* a branch that may have lost a side *)
let branch p m l r =
  match l, r with
  | Empty, t | t, Empty -> t
  | _, _ -> Branch (p, m, l, r)

let rec find_opt k = function
  | Empty -> None
  | Leaf (j, v) -> if j = k then Some v else None
  | Branch (_, m, l, r) -> find_opt k (if zero_bit k m then l else r)

let find k t = match find_opt k t with Some v -> v | None -> raise Not_found
let mem k t = Option.is_some (find_opt k t)

let add k v t =
  let rec ins t =
    match t with
    | Empty -> Leaf (k, v)
    | Leaf (j, w) ->
        if j <> k then join k (Leaf (k, v)) j t
        else if w == v then t
        else Leaf (k, v)
    | Branch (p, m, l, r) ->
        if not (match_prefix k p m) then join k (Leaf (k, v)) p t
        else if zero_bit k m then
          let l' = ins l in
          if l' == l then t else Branch (p, m, l', r)
        else
          let r' = ins r in
          if r' == r then t else Branch (p, m, l, r')
  in
  ins t

let remove k t =
  let rec rmv t =
    match t with
    | Empty -> t
    | Leaf (j, _) -> if j = k then Empty else t
    | Branch (p, m, l, r) ->
        if not (match_prefix k p m) then t
        else if zero_bit k m then
          let l' = rmv l in
          if l' == l then t else branch p m l' r
        else
          let r' = rmv r in
          if r' == r then t else branch p m l r'
  in
  rmv t

(** Ascending key order. *)
let rec fold f t acc =
  match t with
  | Empty -> acc
  | Leaf (k, v) -> f k v acc
  | Branch (_, _, l, r) -> fold f r (fold f l acc)

(** [fold] over the keys in [lo..hi] only, skipping every subtree that
    lies outside. *)
let rec fold_range lo hi f t acc =
  match t with
  | Empty -> acc
  | Leaf (k, v) -> if lo <= k && k <= hi then f k v acc else acc
  | Branch (p, m, l, r) ->
      if hi < p || lo > p lor ((2 * m) - 1) then acc
      else fold_range lo hi f r (fold_range lo hi f l acc)

let bindings t =
  let rec go t acc =
    match t with
    | Empty -> acc
    | Leaf (k, v) -> (k, v) :: acc
    | Branch (_, _, l, r) -> go l (go r acc)
  in
  go t []

(** [map f t] applies [f k v] to every binding, in ascending key order;
    [t] itself when every result is the value it replaces. *)
let rec map f t =
  match t with
  | Empty -> t
  | Leaf (k, v) ->
      let v' = f k v in
      if v' == v then t else Leaf (k, v')
  | Branch (p, m, l, r) ->
      let l' = map f l in
      let r' = map f r in
      if l' == l && r' == r then t else Branch (p, m, l', r')

(** [eq] is called on the values of common keys outside the physically
    equal subtrees, in ascending key order. *)
let rec equal eq s t =
  s == t
  ||
  match s, t with
  | Empty, Empty -> true
  | Leaf (j, a), Leaf (k, b) -> j = k && eq a b
  | Branch (p, m, s0, s1), Branch (q, n, t0, t1) ->
      p = q && m = n && equal eq s0 t0 && equal eq s1 t1
  | (Empty | Leaf _ | Branch _), _ -> false

(* [t] with [k] bound to [a], or to [f k a b] when [t] binds it to [b] *)
let rec add_left f k a t =
  match t with
  | Empty -> Leaf (k, a)
  | Leaf (j, b) -> if j = k then Leaf (k, f k a b) else join k (Leaf (k, a)) j t
  | Branch (p, m, l, r) ->
      if not (match_prefix k p m) then join k (Leaf (k, a)) p t
      else if zero_bit k m then Branch (p, m, add_left f k a l, r)
      else Branch (p, m, l, add_left f k a r)

(** The union of the bindings, [f k a b] on a key bound to [a] in [s] and
    [b] in [t].  [f] is called on common keys in descending order, and
    never inside subtrees the maps share physically: merging a value with
    itself must give it back.  Returns [s] itself when the result equals
    it binding for binding. *)
let rec merge f s t =
  if s == t then s
  else
    match s, t with
    | _, Empty -> s
    | Empty, _ -> t
    | _, Leaf (k, b) -> (
        match find_opt k s with
        | None -> add k b s
        | Some a -> add k (f k a b) s)
    | Leaf (k, a), Branch _ -> add_left f k a t
    | Branch (p, m, s0, s1), Branch (q, n, t0, t1) ->
        if m = n && p = q then
          (* the upper half first: descending order *)
          let r1 = merge f s1 t1 in
          let r0 = merge f s0 t0 in
          if r0 == s0 && r1 == s1 then s else Branch (p, m, r0, r1)
        else if m > n && match_prefix q p m then
          if zero_bit q m then
            let r0 = merge f s0 t in
            if r0 == s0 then s else Branch (p, m, r0, s1)
          else
            let r1 = merge f s1 t in
            if r1 == s1 then s else Branch (p, m, s0, r1)
        else if m < n && match_prefix p q n then
          if zero_bit p n then Branch (q, n, merge f s t0, t1)
          else Branch (q, n, t0, merge f s t1)
        else join p s q t
