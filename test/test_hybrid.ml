(* Tests for the hybrid write barrier: collector capability records, the
   split-verdict lattice of the analysis, half-independent revocation at
   safepoints, and the end-to-end per-half counter invariants under the
   hybrid collector. *)

module Driver = Satb_core.Driver
module Analysis = Satb_core.Analysis

(* --- collector capability records ------------------------------------- *)

let caps_str (c : Jrt.Gc_hooks.caps) =
  Printf.sprintf "{retrace_protocol=%b; descending_scan=%b; insertion_half=%b}"
    c.retrace_protocol c.descending_scan c.insertion_half

let caps_t : Jrt.Gc_hooks.caps Alcotest.testable =
  Alcotest.testable (Fmt.of_to_string caps_str) ( = )

let test_caps_of_choice () =
  let check name choice expected =
    Alcotest.check caps_t name expected (Jrt.Runner.caps_of_choice choice)
  in
  check "no_gc is vacuously capable" Jrt.Runner.No_gc
    {
      Jrt.Gc_hooks.retrace_protocol = true;
      descending_scan = true;
      insertion_half = true;
    };
  check "satb scans descending only"
    (Jrt.Runner.make_satb ())
    {
      Jrt.Gc_hooks.retrace_protocol = false;
      descending_scan = true;
      insertion_half = false;
    };
  check "incr has no extension caps"
    (Jrt.Runner.make_incr ())
    {
      Jrt.Gc_hooks.retrace_protocol = false;
      descending_scan = false;
      insertion_half = false;
    };
  check "retrace adds the tracing-state protocol"
    (Jrt.Runner.make_retrace ())
    {
      Jrt.Gc_hooks.retrace_protocol = true;
      descending_scan = true;
      insertion_half = false;
    };
  check "hybrid consumes the insertion half, nothing else"
    (Jrt.Runner.make_hybrid ())
    {
      Jrt.Gc_hooks.retrace_protocol = false;
      descending_scan = false;
      insertion_half = true;
    }

(* The installed collectors must actually expose the capabilities the
   run-start assertion checks against. *)
let test_collector_caps_agree () =
  let heap = Jrt.Heap.create () in
  let g =
    Jrt.Marker.create Jrt.Hybrid_gc.policy heap
      ~roots:(Jrt.Marker.fixed_roots (fun () -> []))
  in
  Alcotest.check caps_t "hybrid_gc module"
    (Jrt.Runner.caps_of_choice (Jrt.Runner.make_hybrid ()))
    (Jrt.Marker.hooks g).Jrt.Gc_hooks.caps;
  Alcotest.check caps_t "gc_hooks.none"
    (Jrt.Runner.caps_of_choice Jrt.Runner.No_gc)
    Jrt.Gc_hooks.none.Jrt.Gc_hooks.caps

(* --- the split-verdict lattice ----------------------------------------- *)

(* One jasm method exercising all four points of the half-verdict
   lattice, in order of appearance:
     site A  fresh.f := arg     pre-null deletion elision, unknown value
     site B  arg.g := fresh     unknown receiver, freshly allocated value
     site C  fresh.g := fresh   both halves removable
     site D  arg.f := arg       neither half removable
     site E  fresh.f := null    f overwritten at A, stored value null *)
let lattice_src =
  {|
class T
  field ref f
  field ref g
  method void <init> (ref) locals 1 ctor
    return
  end
end
class Main
  static ref sink
  method void m (ref) locals 2
    new T
    dup
    invoke T.<init>
    astore 1
    aload 1
    aload 0
    putfield T.f
    aload 0
    new T
    dup
    invoke T.<init>
    putfield T.g
    aload 1
    new T
    dup
    invoke T.<init>
    putfield T.g
    aload 0
    aload 0
    putfield T.f
    aload 1
    aconst_null
    putfield T.f
    return
  end
end
|}

let lattice_compiled () =
  Driver.compile ~inline_limit:100 (Jir.Parser.parse_linked lattice_src)

let lattice_verdicts compiled =
  List.concat_map
    (fun (r : Analysis.method_result) ->
      if String.equal r.mr_method "m" then
        List.map (fun v -> (r.mr_class, r.mr_method, v)) r.verdicts
      else [])
    compiled.Driver.results

let test_half_verdict_lattice () =
  let compiled = lattice_compiled () in
  let vs = lattice_verdicts compiled in
  Alcotest.(check int) "five store sites" 5 (List.length vs);
  let flags =
    List.map
      (fun (_, _, (v : Analysis.verdict)) -> (v.v_elide, v.v_ins_elide))
      vs
  in
  Alcotest.(check (list (pair bool bool)))
    "per-half elide flags A..E"
    [
      (true, false) (* A: deletion only *);
      (false, true) (* B: insertion only (fresh value) *);
      (true, true) (* C: both *);
      (false, false) (* D: keep *);
      (false, true) (* E: insertion only (null value) *);
    ]
    flags;
  let hv =
    List.map
      (fun (c, m, (v : Analysis.verdict)) ->
        Driver.string_of_hybrid_verdict
          (Driver.hybrid_verdict compiled
             { Driver.sk_class = c; sk_method = m; sk_pc = v.v_pc }))
      vs
  in
  Alcotest.(check (list string))
    "combined verdicts A..E"
    [
      Driver.string_of_hybrid_verdict `Elide_deletion;
      Driver.string_of_hybrid_verdict `Elide_insertion;
      Driver.string_of_hybrid_verdict `Elide_both;
      Driver.string_of_hybrid_verdict `Keep;
      Driver.string_of_hybrid_verdict `Elide_insertion;
    ]
    hv;
  (* freshness proofs need the remark re-scan (the allocation may predate
     the cycle); a provably-null store does not *)
  let repair =
    List.map
      (fun (c, m, (v : Analysis.verdict)) ->
        Driver.ins_repair_needed compiled
          { Driver.sk_class = c; sk_method = m; sk_pc = v.v_pc })
      vs
  in
  Alcotest.(check (list bool))
    "repair needed only under freshness proofs"
    [ false; true; true; false; false ]
    repair

(* --- half-independent revocation --------------------------------------- *)

(* A synthetic all-sites policy where the two halves rest on different
   assumptions, so a single chaos fault revokes exactly one of them.
   No_gc keeps the run free of marking (nothing to make unsound) while
   safepoint revocation still fires. *)
let split_halves : Jrt.Interp.half_policy =
 fun _ _ _ ->
  {
    Jrt.Interp.hs_del_elide = true;
    hs_ins_elide = true;
    hs_ins_repair = true;
    hs_del_guards = [ Jrt.Interp.Single_mutator ];
    hs_ins_guards = [ Jrt.Interp.Closed_world ];
  }

let run_split_halves faults =
  let w = Workloads.Db.t in
  let prog = Workloads.Spec.parse w in
  let cfg =
    {
      Jrt.Interp.default_config with
      barrier_flavor = `Hybrid;
      halves = split_halves;
    }
  in
  let chaos =
    Jrt.Chaos.create { Jrt.Chaos.seed = 1; faults; quantum = None; gc_period = None }
  in
  let r =
    Jrt.Runner.run ~cfg ~gc:Jrt.Runner.No_gc ~seed:1 ~chaos prog
      ~entry:w.Workloads.Spec.entry
  in
  r.Jrt.Runner.machine

let sum_sites m f =
  Hashtbl.fold (fun _ st acc -> acc + f st) m.Jrt.Interp.stats 0

let check_per_half_sums m =
  Hashtbl.iter
    (fun site (st : Jrt.Interp.site_stats) ->
      let id = Jrt.Interp.site_id site in
      Alcotest.(check int)
        (id ^ ": elided+paid = execs") st.execs
        (st.elided_execs + st.paid_execs);
      Alcotest.(check int)
        (id ^ ": deletion halves = execs")
        st.execs
        (st.del_elided_execs + st.del_paid_execs);
      Alcotest.(check int)
        (id ^ ": insertion halves = execs")
        st.execs
        (st.ins_elided_execs + st.ins_paid_execs))
    m.Jrt.Interp.stats

let test_revoke_deletion_half_only () =
  let m =
    run_split_halves [ Jrt.Chaos.Late_spawn { at_instr = 1000; stores = 2 } ]
  in
  Alcotest.(check bool)
    "single-mutator revoked" true
    (List.mem Jrt.Interp.Single_mutator m.Jrt.Interp.revoked);
  Alcotest.(check bool)
    "closed-world intact" false
    (List.mem Jrt.Interp.Closed_world m.Jrt.Interp.revoked);
  Alcotest.(check bool)
    "revocation events fired" true
    (m.Jrt.Interp.revocation_events >= 1);
  Hashtbl.iter
    (fun site (st : Jrt.Interp.site_stats) ->
      let id = Jrt.Interp.site_id site in
      Alcotest.(check bool) (id ^ ": deletion half patched back") false
        st.st_del_elided;
      Alcotest.(check bool) (id ^ ": insertion half still elided") true
        st.st_ins_elided;
      Alcotest.(check bool) (id ^ ": Elide_both downgraded") false
        st.st_elided;
      Alcotest.(check int) (id ^ ": insertion half never paid") 0
        st.ins_paid_execs)
    m.Jrt.Interp.stats;
  check_per_half_sums m;
  (* stores before the spawn elided the deletion half, stores after paid *)
  Alcotest.(check bool)
    "some deletion halves elided (pre-spawn)" true
    (sum_sites m (fun st -> st.del_elided_execs) > 0);
  Alcotest.(check bool)
    "some deletion halves paid (post-revocation)" true
    (sum_sites m (fun st -> st.del_paid_execs) > 0)

let test_revoke_insertion_half_only () =
  let m = run_split_halves [ Jrt.Chaos.Class_load { at_instr = 800 } ] in
  Alcotest.(check bool)
    "closed-world revoked" true
    (List.mem Jrt.Interp.Closed_world m.Jrt.Interp.revoked);
  Alcotest.(check bool)
    "single-mutator intact" false
    (List.mem Jrt.Interp.Single_mutator m.Jrt.Interp.revoked);
  Hashtbl.iter
    (fun site (st : Jrt.Interp.site_stats) ->
      let id = Jrt.Interp.site_id site in
      Alcotest.(check bool) (id ^ ": insertion half patched back") false
        st.st_ins_elided;
      Alcotest.(check bool) (id ^ ": deletion half still elided") true
        st.st_del_elided;
      Alcotest.(check int) (id ^ ": deletion half never paid") 0
        st.del_paid_execs)
    m.Jrt.Interp.stats;
  check_per_half_sums m;
  Alcotest.(check bool)
    "some insertion halves paid (post-revocation)" true
    (sum_sites m (fun st -> st.ins_paid_execs) > 0)

(* --- half revocation under the real analysis and collector -------------- *)

(* Move-down elisions carry the Descending_scan guard (which the hybrid
   collector cannot honour, so the runner revokes them at startup) and
   summary-dependent insertion elisions carry Closed_world (which a
   chaos class load revokes mid-run): both revocations must flip exactly
   the halves that depend on them, leave the other half's elisions
   intact, and keep the end-reachability oracle clean. *)
let half_revocation_prop =
  QCheck2.Test.make
    ~name:
      "hybrid: revoking one half leaves the other intact and the oracle clean"
    ~count:15
    (QCheck2.Gen.pair
       (QCheck2.Gen.oneofl Workloads.Registry.table1)
       (QCheck2.Gen.int_range 1 500))
    (fun (w, seed) ->
      let cw =
        Harness.Exp.compile ~null_or_same:true ~move_down:true ~summaries:true
          w
      in
      let chaos = Jrt.Chaos.create (Jrt.Chaos.of_seed seed) in
      let r =
        Harness.Exp.run
          ~gc:(Jrt.Runner.make_hybrid ~trigger_allocs:24 ())
          ~guards:true ~chaos ~fail_on_thread_error:false ~seed cw
      in
      (match r.Jrt.Runner.gc with
      | Some g ->
          if g.Jrt.Runner.total_violations <> 0 then
            QCheck2.Test.fail_reportf "%s (seed %d): %d oracle violations"
              w.name seed g.Jrt.Runner.total_violations
      | None -> QCheck2.Test.fail_reportf "no gc summary");
      let m = r.Jrt.Runner.machine in
      let halves = Harness.Exp.half_policy_of cw in
      let dead guards =
        List.exists (fun a -> List.mem a m.Jrt.Interp.revoked) guards
      in
      Hashtbl.iter
        (fun (site : Jrt.Interp.site) (st : Jrt.Interp.site_stats) ->
          let hs =
            halves site.Jrt.Interp.s_class site.Jrt.Interp.s_method
              site.Jrt.Interp.s_pc
          in
          let expect_del =
            hs.Jrt.Interp.hs_del_elide && not (dead hs.Jrt.Interp.hs_del_guards)
          in
          let expect_ins =
            hs.Jrt.Interp.hs_ins_elide && not (dead hs.Jrt.Interp.hs_ins_guards)
          in
          if st.st_del_elided <> expect_del then
            QCheck2.Test.fail_reportf
              "%s (seed %d) %s: deletion half %b, expected %b" w.name seed
              (Jrt.Interp.site_id site) st.st_del_elided expect_del;
          if st.st_ins_elided <> expect_ins then
            QCheck2.Test.fail_reportf
              "%s (seed %d) %s: insertion half %b, expected %b" w.name seed
              (Jrt.Interp.site_id site) st.st_ins_elided expect_ins;
          if st.st_elided <> (st.st_del_elided && st.st_ins_elided) then
            QCheck2.Test.fail_reportf "%s (seed %d) %s: st_elided mirror broken"
              w.name seed (Jrt.Interp.site_id site);
          if
            st.execs <> st.del_elided_execs + st.del_paid_execs
            || st.execs <> st.ins_elided_execs + st.ins_paid_execs
            || st.execs <> st.elided_execs + st.paid_execs
          then
            QCheck2.Test.fail_reportf "%s (seed %d) %s: counter sums diverged"
              w.name seed (Jrt.Interp.site_id site))
        m.Jrt.Interp.stats;
      true)

(* --- end to end under the hybrid collector ------------------------------ *)

let test_hybrid_end_to_end () =
  let cw =
    Harness.Exp.compile ~null_or_same:true ~summaries:true Workloads.Jess.t
  in
  let r =
    Harness.Exp.run
      ~gc:(Jrt.Runner.make_hybrid ~trigger_allocs:24 ())
      ~guards:true cw
  in
  (match r.Jrt.Runner.gc with
  | Some g ->
      Alcotest.(check bool) "cycles ran" true (g.Jrt.Runner.cycles > 0);
      Alcotest.(check int) "no oracle violations" 0
        g.Jrt.Runner.total_violations
  | None -> Alcotest.fail "no gc summary");
  let m = r.Jrt.Runner.machine in
  Alcotest.(check bool)
    "deletion halves elided" true
    (sum_sites m (fun st -> st.del_elided_execs) > 0);
  Alcotest.(check bool)
    "insertion halves elided" true
    (sum_sites m (fun st -> st.ins_elided_execs) > 0);
  check_per_half_sums m;
  (* the legacy elided counter means both-halves-elided under hybrid *)
  Alcotest.(check int) "machine-level elided = both-halves sites"
    (sum_sites m (fun st -> st.elided_execs))
    m.Jrt.Interp.elided_barrier_execs

let tests =
  [
    Alcotest.test_case "collector capability records" `Quick
      test_caps_of_choice;
    Alcotest.test_case "installed collectors expose declared caps" `Quick
      test_collector_caps_agree;
    Alcotest.test_case "half-verdict lattice on a known program" `Quick
      test_half_verdict_lattice;
    Alcotest.test_case "late spawn revokes only the deletion half" `Quick
      test_revoke_deletion_half_only;
    Alcotest.test_case "class load revokes only the insertion half" `Quick
      test_revoke_insertion_half_only;
    QCheck_alcotest.to_alcotest half_revocation_prop;
    Alcotest.test_case "hybrid collector end-to-end invariants" `Quick
      test_hybrid_end_to_end;
  ]
