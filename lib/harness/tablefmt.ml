(** Minimal fixed-width text tables for experiment output. *)

type align = L | R

let render ~(header : string list) ~(align : align list)
    (rows : string list list) : string =
  let cols = List.length header in
  let widths = Array.make cols 0 in
  let measure row =
    List.iteri
      (fun i cell -> widths.(i) <- max widths.(i) (String.length cell))
      row
  in
  measure header;
  List.iter measure rows;
  let pad i cell =
    let w = widths.(i) in
    let n = w - String.length cell in
    let a = List.nth align i in
    match a with
    | L -> cell ^ String.make n ' '
    | R -> String.make n ' ' ^ cell
  in
  let line row = String.concat "  " (List.mapi pad row) in
  let sep =
    String.concat "  "
      (List.init cols (fun i -> String.make widths.(i) '-'))
  in
  String.concat "\n" (line header :: sep :: List.map line rows)

let pct num den =
  if den = 0 then "-" else Printf.sprintf "%.1f" (100.0 *. float_of_int num /. float_of_int den)

let f1 v = Printf.sprintf "%.1f" v
