(* The profiler layer: percentile units, MMU windowing edge cases, the
   per-site-sums-reconcile-exactly property under chaos, deterministic
   JSON round-trips, and the regression gate's thresholds. *)

module Stats = Profile.Stats
module Attr = Profile.Attr
module Gate = Profile.Gate

(* --- percentiles -------------------------------------------------------- *)

let test_percentiles () =
  let d = Stats.dist_of [] in
  Alcotest.(check (list int))
    "empty dist is all zero" [ 0; 0; 0; 0; 0; 0 ]
    [ d.d_count; d.d_total; d.d_p50; d.d_p90; d.d_p99; d.d_max ];
  let d = Stats.dist_of [ 7 ] in
  Alcotest.(check (list int))
    "singleton dist" [ 1; 7; 7; 7; 7; 7 ]
    [ d.d_count; d.d_total; d.d_p50; d.d_p90; d.d_p99; d.d_max ];
  (* nearest-rank on 1..100 is the identity *)
  let xs = List.init 100 (fun i -> 100 - i) in
  List.iter
    (fun p ->
      Alcotest.(check int)
        (Printf.sprintf "p%d of 1..100" p)
        p
        (Stats.percentile xs (float_of_int p)))
    [ 1; 50; 90; 99; 100 ];
  let d = Stats.dist_of (List.init 10 (fun i -> i + 1)) in
  Alcotest.(check (list int))
    "1..10 percentiles" [ 5; 9; 10; 10 ]
    [ d.d_p50; d.d_p90; d.d_p99; d.d_max ]

(* --- MMU windowing edge cases ------------------------------------------- *)

let test_mmu_zero_pause () =
  let t = { Stats.steps = 100; pauses = [] } in
  Alcotest.(check int) "total time" 100 (Stats.total_time t);
  List.iter
    (fun w ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "mmu@%d of a zero-pause run" w)
        1.0
        (Stats.mmu t ~window:w))
    [ 1; 10; 100; 1000 ];
  List.iter
    (fun (_, u) ->
      Alcotest.(check (float 1e-9)) "curve point" 1.0 u)
    (Stats.mmu_curve t)

let test_mmu_window_longer_than_run () =
  (* a window longer than the whole run clamps to it, so MMU degrades to
     overall utilization *)
  let t = { Stats.steps = 10; pauses = [ { Stats.at = 5; work = 10 } ] } in
  Alcotest.(check int) "total time" 20 (Stats.total_time t);
  Alcotest.(check (float 1e-9)) "clamped window = utilization" 0.5
    (Stats.mmu t ~window:1000);
  Alcotest.(check (float 1e-9)) "utilization agrees" 0.5 (Stats.utilization t)

let test_mmu_exact_worst_window () =
  let t = { Stats.steps = 90; pauses = [ { Stats.at = 50; work = 10 } ] } in
  (* a window the size of the pause can sit entirely inside it *)
  Alcotest.(check (float 1e-9)) "window = pause -> 0" 0.0
    (Stats.mmu t ~window:10);
  (* a window twice the pause is at worst half paused *)
  Alcotest.(check (float 1e-9)) "window = 2x pause -> 0.5" 0.5
    (Stats.mmu t ~window:20);
  (* the full run sees 10/100 pause time *)
  Alcotest.(check (float 1e-9)) "window = run" 0.9 (Stats.mmu t ~window:100)

let test_mmu_degenerate () =
  let empty = { Stats.steps = 0; pauses = [] } in
  Alcotest.(check (float 1e-9)) "empty run" 1.0 (Stats.mmu empty ~window:10);
  Alcotest.(check bool) "empty curve" true (Stats.mmu_curve empty = []);
  let t = { Stats.steps = 100; pauses = [ { Stats.at = 10; work = 5 } ] } in
  Alcotest.(check (float 1e-9)) "window 0" 1.0 (Stats.mmu t ~window:0);
  (* ascending deduped windows, each at least one unit *)
  let ws = List.map fst (Stats.mmu_curve t) in
  Alcotest.(check bool) "windows ascending" true (List.sort_uniq compare ws = ws);
  Alcotest.(check bool) "windows positive" true (List.for_all (fun w -> w >= 1) ws)

(* --- per-site sums reconcile exactly with the interpreter --------------- *)

let test_reconcile_under_degraded_pacer () =
  (* allocation assists interleave collector increments into the
     allocation path; the per-site attribution must still reconcile
     exactly, and the pacer's assist book must equal the interpreter's *)
  let cw =
    Harness.Exp.compile ~null_or_same:true Workloads.Jbb.t
  in
  let pacing = { Jrt.Pacer.default_config with soft_limit = Some 90 } in
  let gc = Jrt.Runner.make_satb ~pacing ~steps_per_increment:8 () in
  let r = Harness.Exp.run ~gc ~guards:true ~fail_on_thread_error:false cw in
  let p =
    Attr.of_report ~workload:"jbb" ~gc:"satb" r
  in
  (match Attr.reconciles p r with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("degraded run does not reconcile: " ^ e));
  match r.Jrt.Runner.pacer with
  | Some ps ->
      Alcotest.(check bool)
        "assists ran" true (ps.Jrt.Pacer.p_assists > 0);
      Alcotest.(check int)
        "pacer assists = interpreter assist execs"
        r.Jrt.Runner.machine.Jrt.Interp.assist_execs ps.Jrt.Pacer.p_assists
  | None -> Alcotest.fail "no pacer stats"

let compile_full w =
  Harness.Exp.compile ~null_or_same:true ~move_down:true ~swap:true w

let profile_of_report ~(cw : Harness.Exp.compiled_workload) ~gc r =
  Attr.of_report ~workload:cw.Harness.Exp.workload.name ~gc r

let reconcile_prop =
  QCheck2.Test.make
    ~name:"per-site profile sums reconcile with interpreter counters under chaos"
    ~count:20
    (QCheck2.Gen.triple
       (QCheck2.Gen.oneofl Workloads.Registry.table1)
       (QCheck2.Gen.int_range 1 500)
       QCheck2.Gen.bool)
    (fun (w, seed, use_retrace) ->
      let cw = compile_full w in
      let gc, gc_name =
        if use_retrace then
          ( Jrt.Runner.make_retrace ~pacing:(Jrt.Pacer.config_of_trigger 24)
            ~steps_per_increment:8 (),
            "retrace" )
        else
          ( Jrt.Runner.make_satb ~pacing:(Jrt.Pacer.config_of_trigger 24)
            ~steps_per_increment:8 (),
            "satb" )
      in
      let chaos = Jrt.Chaos.create (Jrt.Chaos.of_seed seed) in
      let r =
        Harness.Exp.run ~gc ~guards:true ~chaos ~fail_on_thread_error:false
          ~seed cw
      in
      let p = profile_of_report ~cw ~gc:gc_name r in
      (match Attr.reconciles p r with
      | Ok () -> ()
      | Error e -> QCheck2.Test.fail_reportf "%s (seed %d): %s" w.name seed e);
      (* and the machine-level split is the legacy dyn_stats split *)
      let m = r.Jrt.Runner.machine in
      if
        p.Attr.p_totals.t_elided_execs + p.Attr.p_totals.t_external_elided
        <> m.Jrt.Interp.elided_barrier_execs
      then QCheck2.Test.fail_reportf "elided split diverged";
      true)

(* --- JSON round-trip is exact and deterministic -------------------------- *)

let db_profile () =
  let cw = compile_full Workloads.Db.t in
  let r =
    Harness.Exp.run
      ~gc:(Jrt.Runner.make_retrace ~pacing:(Jrt.Pacer.config_of_trigger 24) ())
      ~guards:true cw
  in
  profile_of_report ~cw ~gc:"retrace" r

let test_json_roundtrip () =
  let p = db_profile () in
  let s = Telemetry.json_to_string (Attr.to_json p) in
  match Telemetry.json_of_string s with
  | Error e -> Alcotest.failf "re-parse failed: %s" e
  | Ok j -> (
      match Attr.of_json j with
      | Error e -> Alcotest.failf "of_json failed: %s" e
      | Ok p' ->
          Alcotest.(check string)
            "byte-identical after a round-trip" s
            (Telemetry.json_to_string (Attr.to_json p'));
          Alcotest.(check int)
            "sites survive" (List.length p.p_sites)
            (List.length p'.Attr.p_sites))

let test_hot_deterministic () =
  let p = db_profile () in
  let sites = Attr.hot ~top:5 p in
  Alcotest.(check bool) "at most five" true (List.length sites <= 5);
  let units = List.map (fun s -> s.Attr.r_barrier_units) sites in
  Alcotest.(check bool) "sorted by units desc" true
    (List.sort (fun a b -> compare b a) units = units);
  (* ties broken by site id: re-running gives the identical order *)
  let again = Attr.hot ~top:5 (db_profile ()) in
  Alcotest.(check (list string))
    "stable across runs"
    (List.map (fun s -> s.Attr.r_site) sites)
    (List.map (fun s -> s.Attr.r_site) again)

(* The ranking must not depend on the order rows arrive in (they are
   born from a Hashtbl fold): a permuted p_sites yields the identical
   hot list, and exact count ties fall back to site-id order. *)
let test_hot_tie_break () =
  let p = db_profile () in
  let names l = List.map (fun s -> s.Attr.r_site) l in
  let permuted = { p with Attr.p_sites = List.rev p.Attr.p_sites } in
  Alcotest.(check (list string))
    "permutation-invariant"
    (names (Attr.hot ~top:10 p))
    (names (Attr.hot ~top:10 permuted));
  match p.Attr.p_sites with
  | [] -> Alcotest.fail "db profile has no sites"
  | s :: _ ->
      (* two rows with byte-equal counts: only the site id can decide *)
      let tied =
        [ { s with Attr.r_site = "Zz.m@9" }; { s with Attr.r_site = "Aa.m@1" } ]
      in
      Alcotest.(check (list string))
        "equal counts fall back to site id"
        [ "Aa.m@1"; "Zz.m@9" ]
        (names (Attr.hot ~top:2 { p with Attr.p_sites = tied }))

let test_json_byte_stable () =
  let render () =
    Telemetry.json_to_string_pretty (Attr.to_json (db_profile ()))
  in
  Alcotest.(check string)
    "profile --json byte-stable across runs" (render ()) (render ())

(* --- profile diff and the bench gate ------------------------------------- *)

let test_profile_diff_regression () =
  let cw_plain = Harness.Exp.compile Workloads.Db.t in
  let gc = Jrt.Runner.make_retrace ~pacing:(Jrt.Pacer.config_of_trigger 24) () in
  let plain =
    profile_of_report ~cw:cw_plain ~gc:"retrace"
      (Harness.Exp.run ~gc ~guards:true cw_plain)
  in
  let full = db_profile () in
  (* losing the extension stack drops the elision rate by ~70 points *)
  let d = Attr.diff ~baseline:full plain in
  Alcotest.(check bool) "plain-vs-full regresses" true (Attr.regressed d);
  (* the other direction is an improvement, not a regression *)
  let d = Attr.diff ~baseline:plain full in
  Alcotest.(check bool) "full-vs-plain passes" false (Attr.regressed d);
  (* self-diff is clean *)
  let d = Attr.diff ~baseline:full full in
  Alcotest.(check bool) "self-diff passes" false (Attr.regressed d)

let table1_json elim_pct =
  Telemetry.Obj
    [
      ( "table1",
        Telemetry.List
          [
            Telemetry.Obj
              [
                ("benchmark", Telemetry.Str "db");
                ("elim_pct", Telemetry.Float elim_pct);
              ];
          ] );
    ]

let test_gate_five_point_drop () =
  (match Gate.diff_json ~old_:(table1_json 9.0) (table1_json 4.0) with
  | Ok o -> Alcotest.(check bool) "5-point drop fails" true (Gate.regressed o)
  | Error e -> Alcotest.fail e);
  (match Gate.diff_json ~old_:(table1_json 9.0) (table1_json 8.5) with
  | Ok o ->
      Alcotest.(check bool) "0.5-point drop passes" false (Gate.regressed o)
  | Error e -> Alcotest.fail e);
  (* a benchmark silently disappearing must not pass *)
  match
    Gate.diff_json ~old_:(table1_json 9.0)
      (Telemetry.Obj [ ("table1", Telemetry.List []) ])
  with
  | Ok o -> Alcotest.(check bool) "missing row fails" true (Gate.regressed o)
  | Error e -> Alcotest.fail e

let engines_json speedup =
  Telemetry.Obj
    [
      ( "engines",
        Telemetry.List
          [
            Telemetry.Obj
              [
                ("benchmark", Telemetry.Str "db");
                ("speedup", Telemetry.Float speedup);
              ];
          ] );
    ]

(* the speedup gate is an absolute floor on the NEW value: a slow run
   in the baseline must not lower the bar *)
let test_gate_engine_speedup_floor () =
  (match Gate.diff_json ~old_:(engines_json 4.5) (engines_json 2.0) with
  | Ok o -> Alcotest.(check bool) "2.0x fails the floor" true (Gate.regressed o)
  | Error e -> Alcotest.fail e);
  (match Gate.diff_json ~old_:(engines_json 4.5) (engines_json 3.4) with
  | Ok o -> Alcotest.(check bool) "3.4x passes" false (Gate.regressed o)
  | Error e -> Alcotest.fail e);
  (* even against an accidentally-slow baseline, the floor holds *)
  match Gate.diff_json ~old_:(engines_json 2.0) (engines_json 2.5) with
  | Ok o ->
      Alcotest.(check bool)
        "below-floor new value fails regardless of baseline" true
        (Gate.regressed o)
  | Error e -> Alcotest.fail e

let test_gate_profile_files () =
  let full = db_profile () in
  let cw_plain = Harness.Exp.compile Workloads.Db.t in
  let plain =
    profile_of_report ~cw:cw_plain ~gc:"retrace"
      (Harness.Exp.run
         ~gc:(Jrt.Runner.make_retrace ~pacing:(Jrt.Pacer.config_of_trigger 24) ())
         ~guards:true cw_plain)
  in
  (match Gate.diff_json ~old_:(Attr.to_json full) (Attr.to_json plain) with
  | Ok o ->
      Alcotest.(check bool) "gate sees profile regression" true
        (Gate.regressed o)
  | Error e -> Alcotest.fail e);
  match Gate.diff_json ~old_:(Attr.to_json full) (table1_json 9.0) with
  | Ok _ -> Alcotest.fail "mixed formats must not compare"
  | Error _ -> ()

(* --- schema versioning --------------------------------------------------- *)

let set_version v = function
  | Telemetry.Obj o ->
      Telemetry.Obj
        (("schema_version", Telemetry.Int v)
        :: List.filter (fun (k, _) -> k <> "schema_version") o)
  | j -> j

let strip_version = function
  | Telemetry.Obj o ->
      Telemetry.Obj (List.filter (fun (k, _) -> k <> "schema_version") o)
  | j -> j

let test_profile_schema_version () =
  let j = Attr.to_json (db_profile ()) in
  (match Attr.of_json j with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "current version must parse: %s" e);
  (match Attr.of_json (strip_version j) with
  | Ok _ -> Alcotest.fail "profile without schema_version must not parse"
  | Error _ -> ());
  match Attr.of_json (set_version (Attr.schema_version + 1) j) with
  | Ok _ -> Alcotest.fail "future schema_version must not parse"
  | Error _ -> ()

let test_gate_bench_schema_version () =
  let v = set_version Gate.bench_schema_version in
  (* same version on both sides compares normally *)
  (match Gate.diff_json ~old_:(v (table1_json 9.0)) (v (table1_json 8.5)) with
  | Ok o ->
      Alcotest.(check bool) "versioned pair compares" false (Gate.regressed o)
  | Error e -> Alcotest.fail e);
  (* both files predating versioning still compare with each other *)
  (match Gate.diff_json ~old_:(table1_json 9.0) (table1_json 8.5) with
  | Ok o ->
      Alcotest.(check bool) "legacy pair compares" false (Gate.regressed o)
  | Error e -> Alcotest.fail e);
  (* mismatched versions are an error, not a silent diff *)
  (match
     Gate.diff_json ~old_:(v (table1_json 9.0))
       (set_version (Gate.bench_schema_version + 1) (table1_json 9.0))
   with
  | Ok _ -> Alcotest.fail "version mismatch must not compare"
  | Error _ -> ());
  (* and so is a version on only one side, in either direction *)
  (match Gate.diff_json ~old_:(table1_json 9.0) (v (table1_json 9.0)) with
  | Ok _ -> Alcotest.fail "unversioned old vs versioned new must not compare"
  | Error _ -> ());
  match Gate.diff_json ~old_:(v (table1_json 9.0)) (table1_json 9.0) with
  | Ok _ -> Alcotest.fail "versioned old vs unversioned new must not compare"
  | Error _ -> ()

let tests =
  [
    Alcotest.test_case "nearest-rank percentiles" `Quick test_percentiles;
    Alcotest.test_case "MMU of a zero-pause run" `Quick test_mmu_zero_pause;
    Alcotest.test_case "MMU window longer than the run" `Quick
      test_mmu_window_longer_than_run;
    Alcotest.test_case "MMU finds the worst window exactly" `Quick
      test_mmu_exact_worst_window;
    Alcotest.test_case "MMU degenerate inputs" `Quick test_mmu_degenerate;
    QCheck_alcotest.to_alcotest reconcile_prop;
    Alcotest.test_case "profile reconciles under a degraded pacer" `Quick
      test_reconcile_under_degraded_pacer;
    Alcotest.test_case "profile JSON round-trips byte-identically" `Quick
      test_json_roundtrip;
    Alcotest.test_case "hot-site ranking is deterministic" `Quick
      test_hot_deterministic;
    Alcotest.test_case "hot-site ties break on site id" `Quick
      test_hot_tie_break;
    Alcotest.test_case "profile JSON is byte-stable across runs" `Quick
      test_json_byte_stable;
    Alcotest.test_case "profile diff flags a lost extension stack" `Quick
      test_profile_diff_regression;
    Alcotest.test_case "gate fails a doctored 5-point elision drop" `Quick
      test_gate_five_point_drop;
    Alcotest.test_case "gate floors the threaded-engine speedup" `Quick
      test_gate_engine_speedup_floor;
    Alcotest.test_case "gate handles profiler files and format mixing" `Quick
      test_gate_profile_files;
    Alcotest.test_case "profiles reject missing or mismatched versions" `Quick
      test_profile_schema_version;
    Alcotest.test_case "bench gate refuses cross-version comparisons" `Quick
      test_gate_bench_schema_version;
  ]
