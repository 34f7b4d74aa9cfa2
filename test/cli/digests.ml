(* Print one line per file: its MD5 digest in hex, two spaces, and its
   basename — the format of coreutils' md5sum, with no dependence on it. *)

let () =
  for i = 1 to Array.length Sys.argv - 1 do
    let f = Sys.argv.(i) in
    Printf.printf "%s  %s\n" (Digest.to_hex (Digest.file f)) (Filename.basename f)
  done
