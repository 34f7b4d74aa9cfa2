(* The profiler layer: percentile units, MMU windowing edge cases, the
   per-site-sums-reconcile-exactly property under chaos, deterministic
   profile JSON, and the regression gate's thresholds. *)

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

(* --- the profile and its JSON are deterministic ----------------------------- *)

let db_profile () =
  let cw = compile_full Workloads.Db.t in
  let r =
    Harness.Exp.run
      ~gc:(Jrt.Runner.make_retrace ~pacing:(Jrt.Pacer.config_of_trigger 24) ())
      ~guards:true cw
  in
  profile_of_report ~cw ~gc:"retrace" r

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

let plain_profile () =
  let cw = Harness.Exp.compile Workloads.Db.t in
  profile_of_report ~cw ~gc:"retrace"
    (Harness.Exp.run
       ~gc:(Jrt.Runner.make_retrace ~pacing:(Jrt.Pacer.config_of_trigger 24) ())
       ~guards:true cw)

(* [Gate.diff_json ~old_:baseline p]'s verdict; an error fails the test *)
let gate_regresses ~baseline p =
  match Gate.diff_json ~old_:(Attr.to_json baseline) (Attr.to_json p) with
  | Ok o -> Gate.regressed o
  | Error e -> Alcotest.fail e

let test_profile_diff_regression () =
  let plain = plain_profile () and full = db_profile () in
  (* losing the extension stack drops the elision rate by ~70 points *)
  Alcotest.(check bool)
    "plain-vs-full regresses" true
    (gate_regresses ~baseline:full plain);
  (* the other direction is an improvement, not a regression *)
  Alcotest.(check bool)
    "full-vs-plain passes" false
    (gate_regresses ~baseline:plain full);
  Alcotest.(check bool)
    "self-diff passes" false
    (gate_regresses ~baseline:full full)

let set_version v = function
  | Telemetry.Obj o ->
      Telemetry.Obj
        (("schema_version", Telemetry.Int v)
        :: List.filter (fun (k, _) -> k <> "schema_version") o)
  | j -> j

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

(* a profile file and a table1 file share no gated table: each direction
   reports the old file's table missing from the new one *)
let test_gate_profile_files () =
  let j = Attr.to_json (db_profile ()) in
  let v = set_version Gate.bench_schema_version (table1_json 9.0) in
  List.iter
    (fun (what, old_, new_) ->
      match Gate.diff_json ~old_ new_ with
      | Ok o -> Alcotest.(check bool) what true (Gate.regressed o)
      | Error _ -> ())
    [ ("profile vs table1 fails", j, v); ("table1 vs profile fails", v, j) ]

(* --- schema versioning --------------------------------------------------- *)

let strip_version = function
  | Telemetry.Obj o ->
      Telemetry.Obj (List.filter (fun (k, _) -> k <> "schema_version") o)
  | j -> j

(* a profile baseline written at any other version (v2 profiles, the
   layout before the [profile] table) or at none never passes *)
let test_profile_schema_version () =
  let j = Attr.to_json (db_profile ()) in
  let v2 = set_version 2 j in
  List.iter
    (fun (what, old_, new_) ->
      match Gate.diff_json ~old_ new_ with
      | Ok _ -> Alcotest.failf "%s compared" what
      | Error _ -> ())
    [
      ("v2 baseline", v2, j);
      ("v2 against v2", v2, v2);
      ("unversioned baseline", strip_version j, j);
      ("future baseline", set_version (Gate.bench_schema_version + 1) j, j);
    ]

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

(* A gated metric that is present but not a number is an error, never a
   skip; one that is absent from a row (pacing_summary's per-workload
   rows carry no auto_losses) is skipped. *)
let test_gate_metric_types () =
  let table1 elim =
    Telemetry.Obj
      [
        ( "table1",
          Telemetry.List
            [
              Telemetry.Obj
                (("benchmark", Telemetry.Str "db")
                :: Option.to_list (Option.map (fun v -> ("elim_pct", v)) elim));
            ] );
      ]
  in
  let good = table1 (Some (Telemetry.Float 9.0)) in
  (match Gate.diff_json ~old_:(table1 (Some (Telemetry.Str "9.0"))) good with
  | Ok _ -> Alcotest.fail "a non-numeric baseline metric compared"
  | Error _ -> ());
  (match Gate.diff_json ~old_:good (table1 (Some Telemetry.Null)) with
  | Ok _ -> Alcotest.fail "a non-numeric new metric compared"
  | Error _ -> ());
  match Gate.diff_json ~old_:(table1 None) good with
  | Ok o -> Alcotest.(check bool) "absent metric skipped" false (Gate.regressed o)
  | Error e -> Alcotest.fail e

(* Every committed baseline gates every table it carries: a self-diff
   passes, no table is "not gated, skipped", and a table whose rows record
   oracle violations fails once one row reads 1. *)
let test_baselines_fully_gated () =
  let dir = "../bench/baseline" in
  let files =
    List.filter
      (fun f -> Filename.check_suffix f ".json")
      (List.sort compare (Array.to_list (Sys.readdir dir)))
  in
  Alcotest.(check bool) "baselines found" true (files <> []);
  let diff f old_ new_ =
    match Gate.diff_json ~old_ new_ with
    | Ok o -> o
    | Error e -> Alcotest.failf "%s: %s" f e
  in
  List.iter
    (fun f ->
      let j =
        match
          Telemetry.json_of_string
            (In_channel.with_open_text (Filename.concat dir f)
               In_channel.input_all)
        with
        | Ok j -> j
        | Error e -> Alcotest.failf "%s: %s" f e
      in
      let o = diff f j j in
      Alcotest.(check bool) (f ^ " self-diff passes") false (Gate.regressed o);
      List.iter
        (fun l ->
          if String.ends_with ~suffix:"not gated, skipped" l then
            Alcotest.failf "%s: %s" f l)
        o.Gate.o_lines;
      match j with
      | Telemetry.Obj tables ->
          List.iter
            (fun (table, rows) ->
              match rows with
              | Telemetry.List (Telemetry.Obj row :: rest)
                when List.mem_assoc "violations" row ->
                  let doctored =
                    Telemetry.Obj
                      (( "violations", Telemetry.Int 1 )
                      :: List.remove_assoc "violations" row)
                  in
                  let j' =
                    Telemetry.Obj
                      (List.map
                         (fun (t, v) ->
                           if t = table then (t, Telemetry.List (doctored :: rest))
                           else (t, v))
                         tables)
                  in
                  Alcotest.(check bool)
                    (Printf.sprintf "%s: a %s violation fails" f table)
                    true
                    (Gate.regressed (diff f j j'))
              | _ -> ())
            tables
      | _ -> Alcotest.failf "%s: not an object" f)
    files

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
    Alcotest.test_case "gate refuses non-numeric metrics" `Quick
      test_gate_metric_types;
    Alcotest.test_case "every baseline table is gated" `Quick
      test_baselines_fully_gated;
  ]
