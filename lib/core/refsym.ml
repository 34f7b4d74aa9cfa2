(** Abstract reference symbols ("Refs" in the paper, §2.1).

    When analyzing a method we create two symbols per allocation site [id]:
    [Alloc {site = id; recent = true}] (the paper's [R_id/A]) denotes the
    object most recently allocated at the site and is {e unique} — it stands
    for a single concrete reference, so stores through it may use strong
    update.  [Alloc {site = id; recent = false}] ([R_id/B]) summarizes all
    objects allocated at the site earlier in the method's execution.

    [Arg i] is the initial value of reference argument [i]; [Global]
    ("GlobalRef") stands for every object allocated outside the method and
    not passed to it. *)

type t =
  | Global
  | Arg of int
  | Alloc of { site : int; recent : bool }

(* Monomorphic, with exactly [Stdlib.compare]'s order (constant
   constructors first, then blocks by tag, then fields left to right): set
   and map iteration order feeds symbol recycling and explanations. *)
let compare (a : t) (b : t) =
  match a, b with
  | Global, Global -> 0
  | Global, (Arg _ | Alloc _) -> -1
  | (Arg _ | Alloc _), Global -> 1
  | Arg i, Arg j -> Int.compare i j
  | Arg _, Alloc _ -> -1
  | Alloc _, Arg _ -> 1
  | Alloc a, Alloc b -> (
      match Int.compare a.site b.site with
      | 0 -> Bool.compare a.recent b.recent
      | c -> c)

let equal (a : t) (b : t) =
  match a, b with
  | Global, Global -> true
  | Arg i, Arg j -> i = j
  | Alloc a, Alloc b -> a.site = b.site && Bool.equal a.recent b.recent
  | (Global | Arg _ | Alloc _), _ -> false

let pp ppf = function
  | Global -> Fmt.string ppf "G"
  | Arg i -> Fmt.pf ppf "arg%d" i
  | Alloc { site; recent = true } -> Fmt.pf ppf "R%d/A" site
  | Alloc { site; recent = false } -> Fmt.pf ppf "R%d/B" site

(** [unique ~in_ctor r] — does [r] denote exactly one concrete reference?
    [R_id/A] always does; the receiver argument does inside a constructor
    (§2.3).  Unique references admit strong update (§2.4). *)
let unique ~in_ctor = function
  | Alloc { recent; _ } -> recent
  | Arg 0 -> in_ctor
  | Arg _ | Global -> false

(** The older-objects summary symbol for an allocation site. *)
let summary site = Alloc { site; recent = false }

let recent site = Alloc { site; recent = true }

module Set = struct
  include Stdlib.Set.Make (struct
    type nonrec t = t

    let compare = compare
  end)

  let pp ppf s =
    Fmt.pf ppf "{%a}" Fmt.(list ~sep:comma pp) (elements s)
end
