(** Runtime values: null, 62-bit integers (standing in for Java's 32-bit
    ints), and references to heap objects by id. *)

type t = Null | Int of int | Ref of int

let equal a b =
  match a, b with
  | Null, Null -> true
  | Int x, Int y -> x = y
  | Ref x, Ref y -> x = y
  | (Null | Int _ | Ref _), _ -> false

let pp ppf = function
  | Null -> Fmt.string ppf "null"
  | Int n -> Fmt.int ppf n
  | Ref id -> Fmt.pf ppf "#%d" id

let is_ref = function Ref _ -> true | Null | Int _ -> false

