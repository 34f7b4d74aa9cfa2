(** E4 — reproduction of the paper's Figure 3: effect of the analyses on
    compiled code size, at inline limit 100.

    Code size is modeled as one unit per instruction plus the inline
    footprint of every retained SATB barrier
    ({!Satb_core.Driver.barrier_footprint}).  The paper reports a 2-6%%
    reduction from barrier elimination, with the array analysis
    contributing less than it does dynamically because array barriers sit
    in loops. *)

type row = {
  bench : string;
  size_b : int;  (** code size with no elimination *)
  size_f : int;
  size_a : int;
}

let measure_one ?(inline_limit = 100) (w : Workloads.Spec.t) : row =
  let size mode =
    Satb_core.Driver.code_size (Exp.compile ~inline_limit ~mode w).compiled
  in
  {
    bench = w.name;
    size_b = size Satb_core.Analysis.B;
    size_f = size F;
    size_a = size A;
  }

let measure ?inline_limit () : row list =
  List.map (measure_one ?inline_limit) Workloads.Registry.table1

let render (rows : row list) : string =
  let body =
    List.map
      (fun r ->
        let reduction s =
          Printf.sprintf "-%.1f%%"
            (100. *. float_of_int (r.size_b - s) /. float_of_int r.size_b)
        in
        [
          r.bench;
          string_of_int r.size_b;
          string_of_int r.size_f;
          reduction r.size_f;
          string_of_int r.size_a;
          reduction r.size_a;
        ])
      rows
  in
  Tablefmt.render
    ~header:[ "benchmark"; "B size"; "F size"; "F vs B"; "A size"; "A vs B" ]
    ~align:[ Tablefmt.L; R; R; R; R; R ]
    body

let print () = print_endline (render (measure ()))
