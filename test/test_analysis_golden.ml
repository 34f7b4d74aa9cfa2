(* Analysis golden: one line per compile of every registry workload ×
   inline limit × analysis mode × extension set, holding the static site
   statistics, the summed fixpoint iterations and a digest of every
   verdict, reason, insertion-half verdict and [--explain] line.  Any
   change to the abstract domain or the fixpoint that moves a single
   verdict, an iteration count or an explanation shows up here.

   The expected lines live in [analysis_golden.expected]; {!Golden}
   says how to regenerate them after an intended analysis change. *)

open Satb_core

let limits = [ 0; 25; 50; 100; 200 ]
let modes = Analysis.[ A; F; B ]

let extensions =
  [
    ("none", fun c -> c);
    ( "nos+md+swap",
      fun (c : Analysis.config) ->
        { c with null_or_same = true; move_down = true; swap = true } );
    ("summaries", fun (c : Analysis.config) -> { c with summaries = true });
    ( "all",
      fun (c : Analysis.config) ->
        {
          c with
          null_or_same = true;
          move_down = true;
          swap = true;
          summaries = true;
        } );
  ]

(* [pp] on one line, however long. *)
let flat pp x =
  let b = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer b in
  Format.fprintf ppf "@[<h>%a@]%!" pp x;
  Buffer.contents b

(* Everything the analysis decided, in a canonical textual form. *)
let decisions (c : Driver.compiled) : string =
  let b = Buffer.create 4096 in
  List.iter
    (fun (r : Analysis.method_result) ->
      Printf.bprintf b "%s.%s %d\n" r.mr_class r.mr_method r.iterations;
      List.iter
        (fun (v : Analysis.verdict) ->
          Printf.bprintf b " %d %b %s %b %s\n" v.v_pc v.v_elide
            (Analysis.string_of_reason v.v_reason)
            v.v_ins_elide
            (Analysis.string_of_ins_reason v.v_ins_reason))
        r.verdicts)
    c.results;
  List.iter
    (fun p -> Buffer.add_string b (Fmt.str "%a\n" Driver.pp_provenance p))
    (Driver.explanations c);
  Buffer.contents b

let line (w : Workloads.Spec.t) prog limit mode (ext, f) =
  let conf = f { Analysis.default_config with mode } in
  let c = Driver.compile ~inline_limit:limit ~conf prog in
  let iterations =
    List.fold_left
      (fun n (r : Analysis.method_result) -> n + r.iterations)
      0 c.results
  in
  Printf.sprintf "%s limit=%d mode=%s ext=%s | %s | iterations=%d | %s"
    w.name limit
    (Analysis.string_of_mode mode)
    ext
    (flat Driver.pp_static_stats (Driver.static_stats c))
    iterations
    (Digest.to_hex (Digest.string (decisions c)))

let lines () =
  List.concat_map
    (fun (w : Workloads.Spec.t) ->
      let prog = Workloads.Spec.parse w in
      List.concat_map
        (fun limit ->
          List.concat_map
            (fun mode -> List.map (line w prog limit mode) extensions)
            modes)
        limits)
    Workloads.Registry.all

let test_golden () =
  Golden.check ~expected:"analysis_golden.expected" ~what:"compile" (lines ())

let tests =
  [ Alcotest.test_case "600 compiles match the golden" `Quick test_golden ]
