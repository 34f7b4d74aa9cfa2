(** Identifiers of abstract heap locations within an object: a declared
    instance field, or the paper's pseudo-field [f_elems] that collapses
    all elements of an object array (§2.4: "we treat an object array as
    an object with a single field f_elems").

    A field id is one int: 0 is [f_elems], and the program's instance
    fields are {!Jir.Program.field_id}'s 1..n, in (class, name) order. *)

type t = int

let elems = 0
let of_field_ref = Jir.Program.field_id
let of_code c = c
let compare = Int.compare
let equal = Int.equal

let pp prog ppf f =
  if f = elems then Fmt.string ppf "elems"
  else
    let c, (fd : Jir.Types.field_decl) = Jir.Program.field_of_id prog f in
    Fmt.pf ppf "%s.%s" c fd.fd_name

module Map = Stdlib.Map.Make (Int)
