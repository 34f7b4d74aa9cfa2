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
}

exception Link_error of string

let link_errorf fmt = Fmt.kstr (fun s -> raise (Link_error s)) fmt

(** [of_program p] indexes [p].  Raises {!Link_error} on duplicate class,
    field or method names. *)
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
      Hashtbl.replace method_tbl key m
    in
    List.iter add_method c.methods
  in
  List.iter add_class program.classes;
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
  { program; class_tbl; method_tbl; field_tbl; static_tbl; spawns }

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
