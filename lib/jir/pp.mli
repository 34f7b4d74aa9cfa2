(** Pretty-printing of JIR programs in the jasm textual syntax.  Output
    parses back to an equal program ({!Parser.parse_program}); grammar
    sketch:

    {v
    class Node
      field ref next
      static int count
      method ref expand (ref) locals 4 [ctor]
        iconst 0
        istore 1
      loop:
        ...
        goto loop
        catch bounds try_start try_end handler
      end
    end
    v} *)

val string_of_ret : Types.ty option -> string
val string_of_ty : Types.ty -> string

val instr_to_string : lbl:(int -> string) -> int Types.instr -> string
(** Mnemonic and arguments, with branch targets rendered by [lbl]. *)

val label_map : Types.meth -> (int, string) Hashtbl.t
val pp_meth : Types.meth Fmt.t
val pp_cls : Types.cls Fmt.t
val pp_program : Types.program Fmt.t
val program_to_string : Types.program -> string
