(* Collector tests: SATB and incremental-update marking correctness,
   sweeping, allocate-black behavior, pause-work asymmetry, and the
   negative cases (barrier removal that each collector cannot tolerate). *)

(* list-churn program: builds a list, then repeatedly unlinks the whole
   list (making garbage) and builds a new one *)
let churn_src =
  {|
class Node
  field ref next
  method void <init> (ref) locals 1 ctor
    return
  end
end
class Main
  static ref head
  method void build (int) locals 2
    aconst_null
    astore 1
  loop:
    iload 0
    ifle fin
    new Node
    dup
    invoke Node.<init>
    dup
    aload 1
    putfield Node.next
    astore 1
    iinc 0 -1
    goto loop
  fin:
    aload 1
    putstatic Main.head
    return
  end
  method void main () locals 1
    iconst 6
    istore 0
  rounds:
    iload 0
    ifle fin
    iconst 24
    invoke Main.build
    iinc 0 -1
    goto rounds
  fin:
    return
  end
end
|}

let compile src =
  Satb_core.Driver.compile ~inline_limit:100 (Jir.Parser.parse_linked src)

let run_churn ?(policy_from_analysis = true) ?(elide_all = false) gc =
  let compiled = compile churn_src in
  let policy site =
    let del_elide =
      elide_all
      || policy_from_analysis
         && (Satb_core.Driver.barrier compiled site).del_elide
    in
    { Jir.Types.keep with del_elide }
  in
  let cfg = { Jrt.Interp.default_config with policy } in
  Jrt.Runner.run ~cfg ~gc compiled.program
    ~entry:{ Jir.Types.mclass = "Main"; mname = "main" }

let satb ?(t = 16) ?(s = 8) () =
  Jrt.Runner.make_satb ~steps_per_increment:s
    ~pacing:(Jrt.Pacer.config_of_trigger t) ()

let incr ?(t = 16) ?(s = 8) () =
  Jrt.Runner.make_incr ~steps_per_increment:s
    ~pacing:(Jrt.Pacer.config_of_trigger t) ()

let gc_of (r : Jrt.Runner.report) =
  match r.gc with Some g -> g | None -> Alcotest.fail "expected gc summary"

let test_satb_collects_garbage () =
  let r = run_churn (satb ()) in
  let g = gc_of r in
  Alcotest.(check int) "no violations" 0 g.total_violations;
  Alcotest.(check bool) "ran cycles" true (g.cycles >= 2);
  (* churn makes garbage: live_count well below total allocations *)
  let h = r.machine.Jrt.Interp.heap in
  Alcotest.(check bool) "swept garbage" true
    (h.Jrt.Heap.live_count < h.Jrt.Heap.total_allocated)

let test_incr_collects_garbage () =
  let r = run_churn ~policy_from_analysis:false (incr ()) in
  let g = gc_of r in
  Alcotest.(check int) "no violations" 0 g.total_violations;
  Alcotest.(check bool) "ran cycles" true (g.cycles >= 2);
  let h = r.machine.Jrt.Interp.heap in
  Alcotest.(check bool) "swept garbage" true
    (h.Jrt.Heap.live_count < h.Jrt.Heap.total_allocated)

let test_satb_sound_with_analysis_policy () =
  (* the initializing stores in build are elided; SATB stays correct *)
  let compiled = compile churn_src in
  let stats = Satb_core.Driver.static_stats compiled in
  Alcotest.(check bool) "something was elided" true (stats.elided_sites > 0);
  let r = run_churn (satb ()) in
  Alcotest.(check int) "no violations" 0 (gc_of r).total_violations

let test_satb_catches_unsound_elision () =
  (* removing every barrier breaks the snapshot: jess's working-memory
     overwrites unlink fact subgraphs during marking without logging *)
  let cw = Harness.Exp.compile Workloads.Jess.t in
  let cfg =
    {
      Jrt.Interp.default_config with
      policy = (fun _ -> { Jir.Types.keep with del_elide = true });
    }
  in
  let r =
    Jrt.Runner.run ~cfg
      ~gc:
        (Jrt.Runner.make_satb ~steps_per_increment:8
           ~pacing:(Jrt.Pacer.config_of_trigger 32) ())
      cw.compiled.program ~entry:Workloads.Jess.t.entry
  in
  Alcotest.(check bool) "violations detected" true
    ((gc_of r).total_violations > 0)

let test_incr_breaks_under_satb_policy () =
  (* pre-null elision is SATB-specific: a card-marking collector must
     hear about initializing stores into already-scanned objects.  (The
     churn program's elided store writes into a *fresh* object, which
     incremental update scans late, so this program alone stays correct;
     mtrt's pattern — elided stores into pre-cycle objects — breaks it.) *)
  let cw = Harness.Exp.compile Workloads.Mtrt.t in
  let r =
    Harness.Exp.run
      ~gc:
        (Jrt.Runner.make_incr ~steps_per_increment:2
           ~pacing:(Jrt.Pacer.config_of_trigger 4) ())
      ~use_policy:true ~seed:3 ~quantum:100 ~gc_period:16 cw
  in
  Alcotest.(check bool) "incremental update misses objects" true
    ((gc_of r).total_violations > 0)

let test_pause_asymmetry () =
  (* same budgets: the incremental final pause does far more work *)
  let satb_pause =
    List.fold_left max 0 (gc_of (run_churn (satb ()))).final_pause_works
  in
  let incr_pause =
    List.fold_left max 0
      (gc_of (run_churn ~policy_from_analysis:false (incr ()))).final_pause_works
  in
  Alcotest.(check bool)
    (Printf.sprintf "incr pause (%d) > satb pause (%d)" incr_pause satb_pause)
    true
    (incr_pause > satb_pause)

let test_satb_allocate_black () =
  (* objects allocated during marking are implicitly marked and never
     swept in that cycle, even if dead by cycle end *)
  let r = run_churn ~policy_from_analysis:false (satb ~t:8 ~s:2 ()) in
  let g = gc_of r in
  Alcotest.(check int) "no violations" 0 g.total_violations

let test_use_after_free_guard () =
  (* with sound policies the interpreter's dead-object guard never fires;
     this is implied by the runs above finishing without Runtime_bug *)
  let r = run_churn (satb ()) in
  Alcotest.(check (list (pair int string))) "no errors" [] r.thread_errors

(* deterministic replay: same seed → same schedule → same stats *)
let test_deterministic_replay () =
  let once () =
    let r = run_churn ~policy_from_analysis:false (satb ()) in
    (r.steps, r.dyn.total_execs, (gc_of r).final_pause_works)
  in
  Alcotest.(check bool) "identical replays" true (once () = once ())

let tests =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("satb collects garbage", test_satb_collects_garbage);
      ("incr collects garbage", test_incr_collects_garbage);
      ("satb sound with analysis", test_satb_sound_with_analysis_policy);
      ("satb catches unsound elision", test_satb_catches_unsound_elision);
      ("incr breaks under satb policy", test_incr_breaks_under_satb_policy);
      ("pause asymmetry", test_pause_asymmetry);
      ("allocate black", test_satb_allocate_black);
      ("no use-after-free", test_use_after_free_guard);
      ("deterministic replay", test_deterministic_replay);
    ]
