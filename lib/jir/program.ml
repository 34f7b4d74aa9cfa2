(** Class-table access: efficient lookup of classes, fields and methods, and
    structural well-formedness checks that do not require dataflow (those
    live in {!Verifier}). *)

open Types

type t = {
  program : program;
  class_tbl : (class_name, cls) Hashtbl.t;
  method_tbl : (class_name * method_name, meth) Hashtbl.t;
  field_tbl : (class_name * field_name, field_decl) Hashtbl.t;
  static_tbl : (class_name * field_name, field_decl) Hashtbl.t;
  spawns : bool Lazy.t;
  numbering : numbering Lazy.t;
}

(* the instance fields numbered 1..n in (class, name) order *)
and numbering = {
  ids : (class_name * field_name, int) Hashtbl.t;
  decls : (class_name * field_decl) array;  (** field [i] at [i - 1] *)
}

exception Link_error of string

let link_errorf fmt = Fmt.kstr (fun s -> raise (Link_error s)) fmt

(* The analysis names every abstract location with one int: a symbol
   code (1 + a parameter index, or a base above the parameters plus
   twice an allocation pc) shifted past 16 bits that hold the field
   number.  These bounds keep the ints distinct and non-negative. *)
let max_instance_fields = 0xFFFF
let max_params = 0xFFFF
let max_code_length = 1 lsl 40

let number_fields classes : numbering =
  let fields =
    List.concat_map (fun c -> List.map (fun fd -> (c.cname, fd)) c.fields) classes
    |> List.sort (fun (c1, f1) (c2, f2) ->
           match String.compare c1 c2 with
           | 0 -> String.compare f1.fd_name f2.fd_name
           | c -> c)
  in
  let decls = Array.of_list fields in
  let ids = Hashtbl.create (Array.length decls) in
  Array.iteri (fun i (c, fd) -> Hashtbl.replace ids (c, fd.fd_name) (i + 1)) decls;
  { ids; decls }

(** [of_program p] indexes [p].  Raises {!Link_error} on duplicate class,
    field or method names, and on a program past the location bounds. *)
let of_program (program : program) : t =
  let class_tbl = Hashtbl.create 16 in
  let method_tbl = Hashtbl.create 64 in
  let field_tbl = Hashtbl.create 64 in
  let static_tbl = Hashtbl.create 16 in
  let add_class (c : cls) =
    if Hashtbl.mem class_tbl c.cname then
      link_errorf "duplicate class %s" c.cname;
    Hashtbl.replace class_tbl c.cname c;
    let add_field tbl what (fd : field_decl) =
      let key = (c.cname, fd.fd_name) in
      if Hashtbl.mem tbl key then
        link_errorf "duplicate %s field %s.%s" what c.cname fd.fd_name;
      Hashtbl.replace tbl key fd
    in
    List.iter (add_field field_tbl "instance") c.fields;
    List.iter (add_field static_tbl "static") c.statics;
    let add_method (m : meth) =
      let key = (c.cname, m.mname) in
      if Hashtbl.mem method_tbl key then
        link_errorf "duplicate method %s.%s" c.cname m.mname;
      if List.length m.params > max_params then
        link_errorf "method %s.%s takes %d parameters, more than %d"
          c.cname m.mname (List.length m.params) max_params;
      if Array.length m.code > max_code_length then
        link_errorf "method %s.%s has %d instructions, more than %d" c.cname
          m.mname (Array.length m.code) max_code_length;
      Hashtbl.replace method_tbl key m
    in
    List.iter add_method c.methods
  in
  List.iter add_class program.classes;
  if Hashtbl.length field_tbl > max_instance_fields then
    link_errorf "the program declares %d instance fields, more than %d"
      (Hashtbl.length field_tbl) max_instance_fields;
  let spawns =
    lazy
      (List.exists
         (fun c ->
           List.exists
             (fun m ->
               Array.exists (function Spawn _ -> true | _ -> false) m.code)
             c.methods)
         program.classes)
  in
  let numbering = lazy (number_fields program.classes) in
  { program; class_tbl; method_tbl; field_tbl; static_tbl; spawns; numbering }

let program t = t.program
let classes t = t.program.classes

let find_class t name : cls option = Hashtbl.find_opt t.class_tbl name

let get_class t name : cls =
  match find_class t name with
  | Some c -> c
  | None -> link_errorf "unknown class %s" name

let find_method t (mr : method_ref) : meth option =
  Hashtbl.find_opt t.method_tbl (mr.mclass, mr.mname)

let get_method t (mr : method_ref) : meth =
  match find_method t mr with
  | Some m -> m
  | None -> link_errorf "unknown method %a" pp_method_ref mr

let find_field t (fr : field_ref) : field_decl option =
  Hashtbl.find_opt t.field_tbl (fr.fclass, fr.fname)

let get_field t (fr : field_ref) : field_decl =
  match find_field t fr with
  | Some fd -> fd
  | None -> link_errorf "unknown field %a" pp_field_ref fr

let find_static t (fr : field_ref) : field_decl option =
  Hashtbl.find_opt t.static_tbl (fr.fclass, fr.fname)

let get_static t (fr : field_ref) : field_decl =
  match find_static t fr with
  | Some fd -> fd
  | None -> link_errorf "unknown static field %a" pp_field_ref fr

(** Type of the field a [Getfield]/[Putfield] refers to. *)
let field_ty t fr = (get_field t fr).fd_ty

let static_ty t fr = (get_static t fr).fd_ty

(** Index of an instance field within its class's field list; the runtime
    lays out object fields in declaration order. *)
let field_index t (fr : field_ref) : int =
  let c = get_class t fr.fclass in
  let rec find i = function
    | [] -> link_errorf "unknown field %a" pp_field_ref fr
    | fd :: rest ->
        if String.equal fd.fd_name fr.fname then i else find (i + 1) rest
  in
  find 0 c.fields

(** The instance field's number: 1..n in (class, name) order.  Numbered
    on the first call and kept. *)
let field_id t (fr : field_ref) : int =
  match Hashtbl.find_opt (Lazy.force t.numbering).ids (fr.fclass, fr.fname) with
  | Some i -> i
  | None -> link_errorf "unknown field %a" pp_field_ref fr

let field_of_id t i : class_name * field_decl =
  let decls = (Lazy.force t.numbering).decls in
  if i < 1 || i > Array.length decls then invalid_arg "Program.field_of_id";
  decls.(i - 1)

(** All (class, method) pairs of the program, in declaration order. *)
let all_methods t : (cls * meth) list =
  List.concat_map
    (fun c -> List.map (fun m -> (c, m)) c.methods)
    t.program.classes

(** Does any method, called or not, hold a [spawn]?  Scanned on the first
    call only. *)
let spawns t = Lazy.force t.spawns

(** Total instruction count over all methods — the "code size" metric before
    barrier-footprint weighting (see Figure 3 harness). *)
let total_instr_count t =
  List.fold_left
    (fun acc (_, m) -> acc + Array.length m.code)
    0 (all_methods t)
