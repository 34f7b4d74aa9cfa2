(** Class-table access: efficient lookup of classes, fields and methods,
    plus structural well-formedness checks (dataflow checks live in
    {!Verifier}). *)

open Types

type t

exception Link_error of string

val max_instance_fields : int
(** 65,535: the most instance fields a program may declare. *)

val max_params : int
(** 65,535: the most parameters a method may take (the JVM's local cap). *)

val max_code_length : int
(** 2{^40}: the most instructions a method may hold. *)

val of_program : program -> t
(** Index a program.  Raises {!Link_error} on duplicate class, field or
    method names, and on a program past {!max_instance_fields},
    {!max_params} or {!max_code_length}: the analysis names each abstract
    location with one int, and these bounds keep two locations from
    sharing it. *)

val program : t -> program
val classes : t -> cls list
val find_class : t -> class_name -> cls option
val get_class : t -> class_name -> cls
val find_method : t -> method_ref -> meth option
val get_method : t -> method_ref -> meth
val find_field : t -> field_ref -> field_decl option
val get_field : t -> field_ref -> field_decl
val find_static : t -> field_ref -> field_decl option
val get_static : t -> field_ref -> field_decl
val field_ty : t -> field_ref -> ty
val static_ty : t -> field_ref -> ty

val field_index : t -> field_ref -> int
(** Index of an instance field within its class's declaration order (the
    runtime's object layout). *)

val field_id : t -> field_ref -> int
(** The instance field's number, 1..n in (class, name) order, so that
    number order is (class, name) order.  Raises {!Link_error} on an
    unknown field.  The numbering is built on the first call and kept. *)

val field_of_id : t -> int -> class_name * field_decl
(** The instance field numbered [i] by {!field_id}. *)

val all_methods : t -> (cls * meth) list

val spawns : t -> bool
(** Does the program hold a [spawn] instruction in any method, called or
    not?  When it does not, the program has one mutator thread for its
    whole run: the analysis's single-mutator premise, and why the runner
    cuts its slices only at safepoints.  Computed on the first call and
    kept. *)

val total_instr_count : t -> int
(** Total instruction count over all methods. *)
