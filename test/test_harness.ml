(* Experiment-harness tests: the qualitative findings each table/figure
   must reproduce, plus renderer sanity. *)

let test_fig2_monotone_and_knee () =
  (* elimination never decreases with the inline limit, mode A dominates
     F dominates B, and level 100 gains (essentially) everything *)
  List.iter
    (fun (w : Workloads.Spec.t) ->
      let elim limit mode =
        (Harness.Fig2.measure_one ~reps:1 w ~limit ~mode).elim_pct
      in
      let a = List.map (fun l -> elim l Satb_core.Analysis.A) [ 0; 25; 50; 100; 200 ] in
      let rec monotone = function
        | x :: (y :: _ as rest) -> x <= y +. 0.01 && monotone rest
        | _ -> true
      in
      Alcotest.(check bool) (w.name ^ " monotone in limit") true (monotone a);
      (match a with
      | [ _; _; _; a100; a200 ] ->
          Alcotest.(check bool)
            (w.name ^ " knee at 100") true
            (Float.abs (a200 -. a100) < 0.01)
      | _ -> Alcotest.fail "expected 5 points");
      let b100 = elim 100 Satb_core.Analysis.B in
      let f100 = elim 100 Satb_core.Analysis.F in
      let a100 = elim 100 Satb_core.Analysis.A in
      Alcotest.(check bool) (w.name ^ " B=0") true (b100 = 0.0);
      Alcotest.(check bool) (w.name ^ " F ≤ A") true (f100 <= a100 +. 0.01))
    Workloads.Registry.table1

let test_fig2_inlining_helps_somewhere () =
  (* at least some benchmarks gain from inlining (limit 100 vs 0) *)
  let gained =
    List.filter
      (fun (w : Workloads.Spec.t) ->
        let e l = (Harness.Fig2.measure_one ~reps:1 w ~limit:l ~mode:Satb_core.Analysis.A).elim_pct in
        e 100 > e 0 +. 5.0)
      Workloads.Registry.table1
  in
  Alcotest.(check bool) "most benchmarks gain from inlining" true
    (List.length gained >= 5)

let test_fig3_code_size_ordering () =
  List.iter
    (fun (r : Harness.Fig3.row) ->
      Alcotest.(check bool) (r.bench ^ " B ≥ F") true (r.size_b >= r.size_f);
      Alcotest.(check bool) (r.bench ^ " F ≥ A") true (r.size_f >= r.size_a);
      let reduction =
        100. *. float_of_int (r.size_b - r.size_a) /. float_of_int r.size_b
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s reduction %.1f%% near the paper's 2-6%% band"
           r.bench reduction)
        true
        (reduction >= 1.5 && reduction <= 8.0))
    (Harness.Fig3.measure ())

let test_table2_ordering () =
  match Harness.Table2.measure () with
  | [ nb; al; ale ] ->
      Alcotest.(check string) "row names" "no-barrier" nb.mode;
      Alcotest.(check bool) "no-barrier fastest" true
        (nb.relative >= ale.relative && ale.relative >= al.relative);
      Alcotest.(check bool) "barrier cost small (≥ 0.95 relative)" true
        (al.relative >= 0.95);
      Alcotest.(check bool) "elimination recovers some cost" true
        (ale.relative > al.relative)
  | _ -> Alcotest.fail "expected three rows"

let test_pause_ordering () =
  List.iter
    (fun (r : Harness.Pause.row) ->
      let satb = Harness.Pause.find r "satb"
      and incr = Harness.Pause.find r "incr" in
      let satb_max = satb.pauses.Profile.Stats.d_max
      and incr_max = incr.pauses.Profile.Stats.d_max in
      Alcotest.(check bool)
        (Printf.sprintf "%s: incr pause (%d) ≥ 10x satb pause (%d)" r.bench
           incr_max satb_max)
        true
        (incr_max >= 10 * max 1 satb_max);
      (* the dist view must agree with itself: percentiles ordered and
         bounded by max, and the paused fraction consistent with MMU *)
      List.iter
        (fun (c : Harness.Pause.coll) ->
          let d = c.pauses in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: p50 ≤ p90 ≤ p99 ≤ max" r.bench c.collector)
            true
            Profile.Stats.(
              d.d_p50 <= d.d_p90 && d.d_p90 <= d.d_p99 && d.d_p99 <= d.d_max);
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: mmu ≤ utilization" r.bench c.collector)
            true
            (c.mmu_10 <= c.utilization +. 1e-9))
        r.collectors)
    (Harness.Pause.measure ())

let test_nullsame_deltas () =
  List.iter
    (fun (r : Harness.Nullsame.row) ->
      match r.paper_delta_pct with
      | Some want ->
          Alcotest.(check bool)
            (Printf.sprintf "%s nos delta %.1f ≈ paper %.1f" r.bench
               r.delta_pct want)
            true
            (Float.abs (r.delta_pct -. want) <= 4.0)
      | None ->
          Alcotest.(check bool) (r.bench ^ " no nos effect") true
            (r.delta_pct < 1.0))
    (Harness.Nullsame.measure ())

let test_static_exceeds_dynamic_for_loopy_arrays () =
  (* §4.2: dynamic elimination trails static when eliminable array stores
     sit in loops; check static ≥ dynamic - small slack overall *)
  List.iter
    (fun (r : Harness.Static_counts.row) ->
      let s = r.stats in
      let static_pct =
        100. *. float_of_int s.elided_sites /. float_of_int s.total_sites
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s static %.1f vs dynamic %.1f plausible" r.bench
           static_pct r.dyn_elim_pct)
        true
        (static_pct >= 0. && static_pct <= 100.))
    (Harness.Static_counts.measure ())

let test_ablation_story () =
  let rows = Harness.Ablation.measure () in
  List.iter
    (fun (r : Harness.Ablation.row) ->
      let v k = List.assoc k r.elim in
      (* losing two-names-per-site loses (almost) all elimination *)
      Alcotest.(check bool)
        (r.bench ^ ": 1-name collapses elimination")
        true
        (v Harness.Ablation.One_name < 1.0);
      (* losing stride discovery loses exactly the loop-carried array
         component: it can never beat full, never lose to field-only *)
      Alcotest.(check bool)
        (r.bench ^ ": no-stride between field-only and full")
        true
        (v Harness.Ablation.No_stride <= v Harness.Ablation.Full +. 0.01
        && v Harness.Ablation.No_stride
           >= v Harness.Ablation.Field_only -. 0.01))
    rows;
  (* mtrt is the array-heavy benchmark: stride discovery must matter *)
  let mtrt =
    List.find (fun (r : Harness.Ablation.row) -> r.bench = "mtrt") rows
  in
  Alcotest.(check bool) "stride discovery carries mtrt" true
    (List.assoc Harness.Ablation.Full mtrt.elim
    > List.assoc Harness.Ablation.No_stride mtrt.elim +. 20.0)

let test_table1_renderer () =
  let rows = Harness.Table1.rows () in
  let s = Harness.Table1.render rows in
  Alcotest.(check bool) "mentions every benchmark" true
    (List.for_all
       (fun (w : Workloads.Spec.t) ->
         let name = w.name in
         let contains s sub =
           let n = String.length sub in
           let rec go i =
             i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
           in
           go 0
         in
         contains s name)
       Workloads.Registry.table1)

(* Exp.config is the one place verdicts become a run configuration.
   The CLI's --no-elim relies on its keep-all form still recording guard
   failures, so the startup capability requests show; under the hybrid
   collector the verdicts carry their guards even without ~guards. *)
let test_exp_config () =
  let cw = Harness.Exp.compile Workloads.Db.t in
  let c = cw.compiled in
  let sites =
    List.concat_map
      (fun (r : Satb_core.Analysis.method_result) ->
        List.map
          (fun (v : Satb_core.Analysis.verdict) ->
            ( { Jir.Types.s_class = r.mr_class; s_method = r.mr_method;
                s_pc = v.v_pc },
              v ))
          r.verdicts)
      c.results
  in
  let each name (cfg : Jrt.Interp.config) ok =
    List.iter
      (fun (site, v) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s" name (Jir.Types.string_of_site site))
          true
          (ok (Satb_core.Driver.barrier c site) v (cfg.policy site)))
      sites
  in
  let no_why (w : Jir.Types.verdict) =
    Lazy.force w.del_why = None && Lazy.force w.ins_why = None
  in
  let plain = Harness.Exp.config ~gc:(Jrt.Runner.make_satb ()) cw in
  Alcotest.(check bool) "guard failures ignored by default" false plain.revoke;
  Alcotest.(check bool) "satb flavour" true (plain.barrier_flavor = `Satb);
  each "satb follows its verdict, unguarded" plain (fun _ v w ->
      w.del_elide = v.v_elide && w.del_guards = [] && (not w.ins_elide)
      && w.ins_guards = [] && no_why w);
  Alcotest.(check bool) "db elides some site" true
    (List.exists (fun (_, v) -> v.Satb_core.Analysis.v_elide) sites);
  let hybrid = Jrt.Runner.make_hybrid () in
  let halves name (cfg : Jrt.Interp.config) ~why =
    Alcotest.(check bool) (name ^ ": hybrid flavour, guard failures revoke")
      true
      (cfg.barrier_flavor = `Hybrid && cfg.revoke);
    each name cfg (fun (b : Jir.Types.verdict) v w ->
        w.del_elide = v.v_elide && w.ins_elide = v.v_ins_elide
        && w.del_guards = b.del_guards && w.ins_guards = b.ins_guards
        && w.ins_repair = b.ins_repair
        && w.check = Jir.Types.No_check
        && Lazy.force w.del_why
           = (if why then Lazy.force b.del_why else None)
        && Lazy.force w.ins_why = if why then Lazy.force b.ins_why else None)
  in
  halves "hybrid with guards" (Harness.Exp.config ~guards:true ~gc:hybrid cw)
    ~why:true;
  halves "hybrid without guards" (Harness.Exp.config ~gc:hybrid cw) ~why:false;
  let keep = Harness.Exp.config ~use_policy:false ~guards:true ~gc:hybrid cw in
  Alcotest.(check bool) "keep-all still records guard failures" true
    keep.revoke;
  each "keep-all keeps, unguarded" keep (fun _ _ w ->
      (not w.del_elide) && (not w.ins_elide) && w.del_guards = []
      && w.ins_guards = []);
  Alcotest.(check bool) "keep-all without guards ignores failures" false
    (Harness.Exp.config ~use_policy:false ~gc:hybrid cw).revoke

let tests =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Slow f)
    [
      ("fig2 monotone + knee", test_fig2_monotone_and_knee);
      ("fig2 inlining helps", test_fig2_inlining_helps_somewhere);
      ("fig3 code size", test_fig3_code_size_ordering);
      ("table2 ordering", test_table2_ordering);
      ("pause ordering", test_pause_ordering);
      ("nullsame deltas", test_nullsame_deltas);
      ("static counts", test_static_exceeds_dynamic_for_loopy_arrays);
      ("ablation story", test_ablation_story);
      ("table1 renderer", test_table1_renderer);
      ("exp config wiring", test_exp_config);
    ]
