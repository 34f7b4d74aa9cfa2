(** Line lexer for the jasm assembly syntax.

    jasm is line-oriented: each non-empty line is one directive,
    instruction, or label declaration.  The lexer strips comments ([;] or
    [#] to end of line) and splits each remaining line on blanks (space,
    tab, carriage return), keeping the 1-based line number for error
    reporting.  One pass over the source; the only allocations are the
    tokens and the lines holding them. *)

type line = { lineno : int; tokens : string list }

let is_blank = function ' ' | '\t' | '\r' -> true | _ -> false

(** [tokenize src] returns one {!line} per non-blank, non-comment source
    line, in order. *)
let tokenize (src : string) : line list =
  let n = String.length src in
  let rec token_end j =
    if j >= n then j
    else
      match src.[j] with
      | ' ' | '\t' | '\r' | '\n' | ';' | '#' -> j
      | _ -> token_end (j + 1)
  in
  let rec line_end j = if j >= n || src.[j] = '\n' then j else line_end (j + 1) in
  let flush lineno toks lines =
    match toks with
    | [] -> lines
    | _ :: _ -> { lineno; tokens = List.rev toks } :: lines
  in
  (* [toks]: the tokens of line [lineno] so far; [lines]: the finished
     lines; both reversed *)
  let rec scan i lineno toks lines =
    if i >= n then List.rev (flush lineno toks lines)
    else
      match src.[i] with
      | '\n' -> scan (i + 1) (lineno + 1) [] (flush lineno toks lines)
      | ';' | '#' -> scan (line_end i) lineno toks lines
      | c when is_blank c -> scan (i + 1) lineno toks lines
      | _ ->
          let j = token_end i in
          scan j lineno (String.sub src i (j - i) :: toks) lines
  in
  scan 0 1 [] []
