(* The shared body of the golden-file tests: the lines a test computed
   must equal its expected file, line by line.  To regenerate expected
   files after an intended change, run the suite with [GOLDEN_OUT=<dir>]:
   each golden test writes its computed lines to [<dir>/<expected file>],
   to be copied over the expected one. *)

let read_lines path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

(* [check ~expected ~what got]: [what] names what one line stands for *)
let check ~expected ~what got =
  (match Sys.getenv_opt "GOLDEN_OUT" with
  | Some dir ->
      Out_channel.with_open_bin (Filename.concat dir expected) (fun oc ->
          List.iter (fun l -> output_string oc (l ^ "\n")) got)
  | None -> ());
  let want = read_lines expected in
  Alcotest.(check int) ("one line per " ^ what) (List.length want)
    (List.length got);
  List.iter2 (fun w g -> Alcotest.(check string) "golden line" w g) want got
