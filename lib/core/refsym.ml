(** Abstract reference symbols ("Refs" in the paper, §2.1).

    When analyzing a method we create two symbols per allocation site [id]:
    [Alloc {site = id; recent = true}] (the paper's [R_id/A]) denotes the
    object most recently allocated at the site and is {e unique} — it stands
    for a single concrete reference, so stores through it may use strong
    update.  [Alloc {site = id; recent = false}] ([R_id/B]) summarizes all
    objects allocated at the site earlier in the method's execution.

    [Arg i] is the initial value of reference argument [i]; [Global]
    ("GlobalRef") stands for every object allocated outside the method and
    not passed to it.

    A symbol is one int that orders like the variant: [Global] is 0,
    [Arg i] is [1 + i], and [Alloc] is [alloc_base + 2·site + recent],
    above every parameter {!Jir.Program.of_program} admits.  Set and map
    iteration order feeds symbol recycling, stride discovery and
    explanations, so it must stay the variant's. *)

type t = int

type view =
  | Global
  | Arg of int
  | Alloc of { site : int; recent : bool }

let alloc_base = Jir.Program.max_params + 1
let global = 0
let arg i = 1 + i
let summary site = alloc_base + (2 * site)
let recent site = summary site + 1

let of_view = function
  | Global -> global
  | Arg i -> arg i
  | Alloc { site; recent = true } -> recent site
  | Alloc { site; recent = false } -> summary site

let view r =
  if r = global then Global
  else if r < alloc_base then Arg (r - 1)
  else Alloc { site = (r - alloc_base) / 2; recent = r land 1 = 1 }

let of_code c = c
let equal = Int.equal

let pp ppf r =
  match view r with
  | Global -> Fmt.string ppf "G"
  | Arg i -> Fmt.pf ppf "arg%d" i
  | Alloc { site; recent = true } -> Fmt.pf ppf "R%d/A" site
  | Alloc { site; recent = false } -> Fmt.pf ppf "R%d/B" site

(** [unique ~in_ctor r] — does [r] denote exactly one concrete reference?
    [R_id/A] always does; the receiver argument does inside a constructor
    (§2.3).  Unique references admit strong update (§2.4). *)
let unique ~in_ctor r =
  if r >= alloc_base then r land 1 = 1 else r = arg 0 && in_ctor

module Set = struct
  include Stdlib.Set.Make (Int)

  let pp ppf s =
    Fmt.pf ppf "{%a}" Fmt.(list ~sep:comma pp) (elements s)
end

module Map = Stdlib.Map.Make (Int)
