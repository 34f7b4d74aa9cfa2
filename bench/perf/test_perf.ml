(* Unit tests for the benchmark's statistics, its compare verdicts, and
   BENCHMARK.json against the metric dictionary.  The path of
   BENCHMARK.json is the first argument. *)

open Perf_lib

let geomean_of_medians () =
  (* medians 2 and 8: geometric mean 4 *)
  Alcotest.(check (float 1e-9))
    "geomean of medians" 4.0
    (Pstats.geomean_of_medians [ [ 3; 1; 2 ]; [ 8; 8; 100; 7; 9 ] ])

let tail_percentile () =
  let check n want =
    Alcotest.(check (option (float 0.0)))
      (Printf.sprintf "%d samples" n) want (Pstats.tail_percentile n)
  in
  check 30_000 (Some 99.9);
  check 20_000 (Some 99.9);
  check 9_999 (Some 99.0);
  check 1_000 (Some 99.0);
  check 999 (Some 90.0);
  check 100 (Some 90.0);
  check 20 (Some 50.0);
  check 19 None

let p99_refusal () =
  let xs n = List.init n (fun i -> i + 1) in
  Alcotest.(check (option int)) "999 samples" None (Pstats.p99 (xs 999));
  (* nearest rank 990 of 1..1000, with ten samples beyond it *)
  Alcotest.(check (option int)) "1000 samples" (Some 990) (Pstats.p99 (xs 1000))

let paired_delta () =
  (* deltas 9, 18, 0, -1, 4: median 4, though the arms' medians differ by 6 *)
  Alcotest.(check int)
    "paired median" 4
    (Pstats.paired_delta_median [ (10, 1); (20, 2); (5, 5); (3, 4); (30, 26) ])

let quartiles () =
  (* statistics.quantiles(range(1, 11), n=4) *)
  let q1, q2, q3 =
    Pstats.quartiles (List.init 10 (fun i -> float_of_int (i + 1)))
  in
  Alcotest.(check (list (float 1e-9)))
    "quartiles" [ 2.75; 5.5; 8.25 ] [ q1; q2; q3 ];
  Alcotest.(check (float 1e-9))
    "even median" 2.5
    (Pstats.median_f [ 4.0; 1.0; 2.0; 3.0 ]);
  (* nearest rank 3 of 10 *)
  let tenths = List.init 10 (fun i -> float_of_int (10 - i) /. 10.0) in
  Alcotest.(check (float 1e-9))
    "float percentile" 0.3
    (Pstats.percentile_f tenths 25.0)

let e2e name = List.find (fun (m : Metric.e2e) -> m.name = name) Metric.e2e

let verdicts () =
  let m = e2e "latency_ms_p50" in
  let v = Alcotest.testable (Fmt.of_to_string Metric.string_of_verdict) ( = ) in
  let around x = [ x *. 0.99; x; x *. 1.01; x; x *. 1.005 ] in
  Alcotest.check v "same" Metric.Ok
    (Metric.verdict m (around 1.0) (around 1.02));
  Alcotest.check v "slower" Metric.Worse
    (Metric.verdict m (around 1.0) (around 1.5));
  Alcotest.check v "noisy" Metric.Unresolved
    (Metric.verdict m (around 1.0) [ 0.5; 1.5; 1.0; 0.7; 1.3 ]);
  Alcotest.check v "noisy but all faster" Metric.Ok
    (Metric.verdict m [ 1.0; 2.0; 1.5; 1.2; 1.8 ] [ 0.5; 0.6; 0.9; 0.55; 0.7 ]);
  let exact = e2e "dyn_elim_pct" in
  Alcotest.check v "exact count moved" Metric.Worse
    (Metric.verdict exact [ 40.0; 40.0 ] [ 39.9; 39.9 ])

(* BENCHMARK.json lists exactly the metrics the result line carries *)
let benchmark_json path () =
  let json =
    let text = In_channel.with_open_text path In_channel.input_all in
    match Telemetry.json_of_string text with
    | Ok (Telemetry.Obj f) -> f
    | _ -> Alcotest.fail "BENCHMARK.json is not a JSON object"
  in
  let entries key =
    match List.assoc_opt key json with
    | Some (Telemetry.List l) ->
        List.map
          (function
            | Telemetry.Obj f ->
                List.map
                  (fun (k, v) ->
                    ( k,
                      match v with
                      | Telemetry.Str s -> s
                      | Telemetry.Float x -> Printf.sprintf "%g" x
                      | Telemetry.Int x -> string_of_int x
                      | _ -> "?" ))
                  f
            | _ -> Alcotest.fail (key ^ ": not an object"))
          l
    | _ -> Alcotest.fail (key ^ " missing")
  in
  let e2e =
    List.filter_map
      (fun (m : Metric.e2e) ->
        if m.listed then
          Some
            [
              ("name", m.name);
              ("unit", m.unit);
              ("better", Metric.string_of_better m.better);
              ("bound", Printf.sprintf "%g" m.bound);
            ]
        else None)
      Metric.e2e
  in
  let layers =
    List.filter_map
      (fun (m : Metric.layer) ->
        if m.everywhere then
          Some
            [
              ("name", m.l_name);
              ("unit", m.l_unit);
              ("better", Metric.string_of_better m.l_better);
            ]
        else None)
      Metric.per_layer
  in
  let sorted = List.map (List.sort compare) in
  Alcotest.(check (list (list (pair string string))))
    "end_to_end" (sorted e2e) (sorted (entries "end_to_end"));
  Alcotest.(check (list (list (pair string string))))
    "per_layer" (sorted layers) (sorted (entries "per_layer"))

let () =
  let path = Sys.argv.(1) in
  Alcotest.run ~argv:[| Sys.argv.(0) |] "perf"
    [
      ( "stats",
        [
          Alcotest.test_case "geomean of medians" `Quick geomean_of_medians;
          Alcotest.test_case "highest tail percentile" `Quick tail_percentile;
          Alcotest.test_case "p99 refused below 1000" `Quick p99_refusal;
          Alcotest.test_case "paired differential median" `Quick paired_delta;
          Alcotest.test_case "python quartiles" `Quick quartiles;
        ] );
      ( "compare",
        [
          Alcotest.test_case "verdicts" `Quick verdicts;
          Alcotest.test_case "BENCHMARK.json" `Quick (benchmark_json path);
        ] );
    ]
