(** E3 — reproduction of the paper's Figure 2: effect of the inline limit
    on analysis effectiveness and compilation time.

    For each benchmark and each inline limit we compile in three modes —
    B (no analysis), F (field analysis), A (field + array analysis) — and
    report the dynamic elimination rate and the compile (inline +
    analysis) time.  The paper's qualitative findings to reproduce: the
    elimination rate climbs with the inline limit and the 100-instruction
    level "gains essentially all the analysis results", while compile time
    keeps growing with more aggressive inlining; and F ⊆ A in both
    effectiveness and cost. *)

let limits = [ 0; 25; 50; 100; 200 ]
let modes = [ Satb_core.Analysis.B; F; A ]

type point = {
  bench : string;
  limit : int;
  mode : Satb_core.Analysis.mode;
  elim_pct : float;
  compile_s : float;
      (** inline + analysis CPU seconds, averaged over [reps] *)
}

let pct num den =
  if den = 0 then 0.0 else 100.0 *. float_of_int num /. float_of_int den

let measure_one ?(reps = 5) (w : Workloads.Spec.t) ~limit ~mode : point =
  (* timing: average several compiles to stabilize the tiny absolute
     numbers; effectiveness: one instrumented run *)
  let cw = ref (Exp.compile ~inline_limit:limit ~mode w) in
  let time = ref ((!cw).compiled.analysis_seconds +. (!cw).compiled.inline_seconds) in
  for _ = 2 to reps do
    cw := Exp.compile ~inline_limit:limit ~mode w;
    time := !time +. (!cw).compiled.analysis_seconds +. (!cw).compiled.inline_seconds
  done;
  let r = Exp.run !cw in
  {
    bench = w.name;
    limit;
    mode;
    elim_pct = pct r.dyn.elided_execs r.dyn.total_execs;
    compile_s = !time /. float_of_int reps;
  }

let measure ?reps () : point list =
  List.concat_map
    (fun w ->
      List.concat_map
        (fun limit ->
          List.map (fun mode -> measure_one ?reps w ~limit ~mode) modes)
        limits)
    Workloads.Registry.table1

let render (points : point list) : string =
  let buf = Buffer.create 1024 in
  let benches =
    List.sort_uniq compare (List.map (fun p -> p.bench) points)
  in
  List.iter
    (fun bench ->
      Buffer.add_string buf (Printf.sprintf "%s:\n" bench);
      let rows =
        List.filter_map
          (fun limit ->
            let find mode =
              List.find_opt
                (fun p -> p.bench = bench && p.limit = limit && p.mode = mode)
                points
            in
            match find Satb_core.Analysis.B, find F, find A with
            | Some b, Some f, Some a ->
                Some
                  [
                    string_of_int limit;
                    Tablefmt.f1 b.elim_pct;
                    Tablefmt.f1 f.elim_pct;
                    Tablefmt.f1 a.elim_pct;
                    Printf.sprintf "%.2f" (b.compile_s *. 1000.);
                    Printf.sprintf "%.2f" (f.compile_s *. 1000.);
                    Printf.sprintf "%.2f" (a.compile_s *. 1000.);
                  ]
            | _ -> None)
          limits
      in
      Buffer.add_string buf
        (Tablefmt.render
           ~header:
             [
               "inline limit";
               "B elim%";
               "F elim%";
               "A elim%";
               "B ms";
               "F ms";
               "A ms";
             ]
           ~align:[ Tablefmt.R; R; R; R; R; R; R ]
           rows);
      Buffer.add_string buf "\n\n")
    benches;
  Buffer.contents buf

let print () = print_string (render (measure ()))
