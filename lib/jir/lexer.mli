(** Line lexer for the jasm assembly syntax: strips [;]/[#] comments and
    splits each non-blank line into tokens separated by spaces, tabs or
    carriage returns (so CRLF sources lex like LF ones), keeping 1-based
    line numbers for error reporting. *)

type line = { lineno : int; tokens : string list }

val tokenize : string -> line list
