(* Heap-state observatory tests: dominator-tree units on hand-built
   graphs, census/heap-counter reconciliation under chaos on both
   engines, and the float-accounting properties (the oracle's reachable
   set is always a subset of the collector's survivors; float is exactly
   zero when nothing overwrites references during marking). *)

module Dom = Heapscope.Dom
module Census = Heapscope.Census
module Obs = Heapscope.Observatory

(* ---- dominators on hand-built graphs ----------------------------------- *)

let graph edges n =
  let succ v = List.filter_map (fun (a, b) -> if a = v then Some b else None) edges in
  fun roots -> Dom.compute ~n ~succ ~roots

let test_dom_diamond () =
  (* 0 -> 1 -> 3, 0 -> 2 -> 3: neither arm dominates 3 *)
  let t = graph [ (0, 1); (0, 2); (1, 3); (2, 3) ] 4 [ 0 ] in
  Alcotest.(check int) "idom 1" 0 (Dom.idom t 1);
  Alcotest.(check int) "idom 2" 0 (Dom.idom t 2);
  Alcotest.(check int) "idom 3 joins at 0" 0 (Dom.idom t 3);
  Alcotest.(check int) "root under virtual root" (Dom.virtual_root t) (Dom.idom t 0);
  let ret = Dom.retained t ~units:(fun _ -> 1) in
  Alcotest.(check int) "0 retains all" 4 ret.(0);
  Alcotest.(check int) "1 retains itself" 1 ret.(1);
  Alcotest.(check int) "virtual root totals" 4 ret.(Dom.virtual_root t)

let test_dom_back_edge () =
  (* cycle through a back-edge: 0 -> 1 -> 2 -> 0 *)
  let t = graph [ (0, 1); (1, 2); (2, 0) ] 3 [ 0 ] in
  Alcotest.(check int) "idom 1" 0 (Dom.idom t 1);
  Alcotest.(check int) "idom 2" 1 (Dom.idom t 2);
  Alcotest.(check int) "idom 0" (Dom.virtual_root t) (Dom.idom t 0);
  Alcotest.(check (list int)) "chain from 2" [ 2; 1; 0 ] (Dom.chain t 2);
  let ret = Dom.retained t ~units:(fun v -> v + 1) in
  Alcotest.(check int) "0 retains the cycle" 6 ret.(0);
  Alcotest.(check int) "1 retains 2 and itself" 5 ret.(1)

let test_dom_disconnected () =
  (* 2 -> 3 unreachable from the root *)
  let t = graph [ (0, 1); (2, 3) ] 4 [ 0 ] in
  Alcotest.(check bool) "1 reachable" true (Dom.reachable t 1);
  Alcotest.(check bool) "2 unreachable" false (Dom.reachable t 2);
  Alcotest.(check int) "idom 2 is -1" (-1) (Dom.idom t 2);
  Alcotest.(check int) "idom 3 is -1" (-1) (Dom.idom t 3);
  Alcotest.(check (list int)) "chain of unreachable" [] (Dom.chain t 3);
  let ret = Dom.retained t ~units:(fun _ -> 1) in
  Alcotest.(check int) "unreachable retains 0" 0 ret.(2);
  Alcotest.(check int) "total counts reachable only" 2 ret.(Dom.virtual_root t)

let test_dom_multi_root () =
  (* an object held by two roots is dominated only by the virtual root *)
  let t = graph [ (0, 2); (1, 2) ] 3 [ 0; 1 ] in
  Alcotest.(check int) "idom 2" (Dom.virtual_root t) (Dom.idom t 2)

(* ---- census on a hand-built heap --------------------------------------- *)

let test_census_hand_heap () =
  let h = Jrt.Heap.create () in
  let s1 = Jrt.Sitemap.intern "T.m@1" and s2 = Jrt.Sitemap.intern "T.m@2" in
  let _a = Jrt.Heap.alloc_object ~site:s1 h "A" ~n_fields:2 in
  let _b = Jrt.Heap.alloc_object ~site:s1 h "A" ~n_fields:2 in
  let c = Jrt.Heap.alloc_object ~site:s2 h "B" ~n_fields:0 in
  h.Jrt.Heap.gc_cycle <- 3;
  let d = Jrt.Heap.alloc_object ~site:s2 h "B" ~n_fields:6 in
  Jrt.Heap.free h c;
  let rows = Census.of_heap h in
  let live, units = Census.totals rows in
  Alcotest.(check int) "live reconciles" h.Jrt.Heap.live_count live;
  Alcotest.(check int) "units reconcile" h.Jrt.Heap.live_units units;
  (* heaviest row first: two 4-unit A objects (8u) vs one 8-unit B *)
  (match rows with
  | r1 :: _ ->
      Alcotest.(check string) "top class" "A" r1.Census.cls;
      Alcotest.(check int) "top units" 8 r1.Census.units;
      Alcotest.(check int) "aged out of <=1" 0 r1.Census.ages.(0);
      Alcotest.(check int) "age 3 bucket" 2 r1.Census.ages.(2)
  | [] -> Alcotest.fail "census empty");
  let rb = List.find (fun r -> r.Census.cls = "B") rows in
  Alcotest.(check int) "B row is just the fresh object"
    (Jrt.Heap.size_units d) rb.Census.units;
  Alcotest.(check int) "fresh object in <=1" 1 rb.Census.ages.(0)

(* ---- census/oracle properties over real runs --------------------------- *)

let collectors =
  [
    ("satb", Jrt.Runner.make_satb ());
    ("incr", Jrt.Runner.make_incr ());
    ("retrace", Jrt.Runner.make_retrace ());
    ("hybrid", Jrt.Runner.make_hybrid ());
  ]

(* An observer that exercises the real observatory AND re-checks its two
   core invariants from first principles at every cycle end. *)
let checking_observer ~label obs cycles_seen (m : Jrt.Interp.t) =
  let h = m.Jrt.Interp.heap in
  (* census totals reconcile exactly with the heap's unit accounting *)
  let live, units = Census.totals (Census.of_heap h) in
  if live <> h.Jrt.Heap.live_count || units <> h.Jrt.Heap.live_units then
    Alcotest.failf "%s: census %d/%d vs heap %d/%d" label live units
      h.Jrt.Heap.live_count h.Jrt.Heap.live_units;
  (* the oracle's reachable set is a subset of the collector's survivors *)
  let reach = Jrt.Oracle.reachable h (Jrt.Interp.roots m) in
  Jrt.Oracle.Ids.iter
    (fun id ->
      if (Jrt.Heap.get h id).Jrt.Heap.dead then
        Alcotest.failf "%s: reachable object %d was swept" label id)
    reach;
  incr cycles_seen;
  Obs.observe obs m

let chaos_of seed =
  Jrt.Chaos.create
    {
      Jrt.Chaos.seed;
      faults =
        [
          Jrt.Chaos.Alloc_spike { at_instr = 400; count = 24 };
          Jrt.Chaos.Heap_pressure { at_alloc = 96 };
        ];
      quantum = None;
      gc_period = None;
    }

let reconcile_case ~engine ~seed () =
  let label_engine =
    match engine with `Interp -> "interp" | `Threaded -> "threaded"
  in
  List.iter
    (fun (gc_name, gc) ->
      List.iter
        (fun wname ->
          let w = Option.get (Workloads.Registry.find wname) in
          let cw = Harness.Exp.compile w in
          let obs = Obs.create () in
          let seen = ref 0 in
          let label =
            Printf.sprintf "%s/%s/%s/seed=%d" wname gc_name label_engine seed
          in
          let r =
            Harness.Exp.run ~gc ~guards:true ~seed ~engine
              ~chaos:(chaos_of seed) ~fail_on_thread_error:false
              ~observer:(checking_observer ~label obs seen)
              cw
          in
          (match r.Jrt.Runner.gc with
          | Some g ->
              Alcotest.(check int)
                (label ^ ": no violations") 0 g.Jrt.Runner.total_violations
          | None -> Alcotest.fail "expected gc summary");
          if !seen = 0 then Alcotest.failf "%s: no cycle observed" label;
          Alcotest.(check int)
            (label ^ ": observatory saw every cycle")
            !seen
            (List.length (Obs.cycles obs)))
        [ "db"; "jess" ])
    collectors

(* Float is exactly zero when no reference is overwritten while marking:
   concurrent marking then retains precisely the reachable set, i.e. the
   run is stop-the-world-equivalent.  compress and mpegaudio do int-array
   work with (almost) no barriers — their float must be 0 under every
   collector on both engines. *)
let float_zero_case ~engine () =
  List.iter
    (fun (gc_name, gc) ->
      List.iter
        (fun wname ->
          let w = Option.get (Workloads.Registry.find wname) in
          let cw = Harness.Exp.compile w in
          let obs = Obs.create () in
          let _r = Harness.Exp.run ~gc ~engine ~observer:(Obs.observe obs) cw in
          let fo, fu = Obs.float_totals obs in
          if fo <> 0 || fu <> 0 then
            Alcotest.failf "%s/%s: %d objects (%d units) floated" wname
              gc_name fo fu)
        [ "compress"; "mpegaudio" ])
    collectors

(* Property form of the reconciliation check: any seed, not just the
   three pinned chaos seeds. *)
let qcheck_reconcile =
  let w = Option.get (Workloads.Registry.find "db") in
  let cw = Harness.Exp.compile w in
  QCheck2.Test.make ~name:"census reconciles for arbitrary seeds" ~count:12
    QCheck2.Gen.(int_bound 10_000)
    (fun seed ->
      let obs = Obs.create () in
      let seen = ref 0 in
      let label = Printf.sprintf "db/satb/prop/seed=%d" seed in
      let _r =
        Harness.Exp.run ~gc:(Jrt.Runner.make_satb ()) ~seed
          ~chaos:(chaos_of seed) ~fail_on_thread_error:false
          ~observer:(checking_observer ~label obs seen)
          cw
      in
      !seen > 0 && !seen = List.length (Obs.cycles obs))

(* ---- verdict attribution plumbing -------------------------------------- *)

let test_verdict_log_gated () =
  (* track_heap off (the default): the interpreter must not accumulate
     the elided-write log at all *)
  let w = Option.get (Workloads.Registry.find "db") in
  let cw = Harness.Exp.compile w in
  let r = Harness.Exp.run ~gc:(Jrt.Runner.make_satb ()) cw in
  Alcotest.(check int)
    "no verdict log without observer" 0
    (List.length r.Jrt.Runner.machine.Jrt.Interp.elided_write_log)

let tests =
  [
    Alcotest.test_case "dominators: diamond" `Quick test_dom_diamond;
    Alcotest.test_case "dominators: back-edge cycle" `Quick test_dom_back_edge;
    Alcotest.test_case "dominators: disconnected" `Quick test_dom_disconnected;
    Alcotest.test_case "dominators: multi-root join" `Quick test_dom_multi_root;
    Alcotest.test_case "census: hand-built heap" `Quick test_census_hand_heap;
    Alcotest.test_case "census reconciles: interp, seed 42" `Quick
      (reconcile_case ~engine:`Interp ~seed:42);
    Alcotest.test_case "census reconciles: interp, seed 7" `Quick
      (reconcile_case ~engine:`Interp ~seed:7);
    Alcotest.test_case "census reconciles: interp, seed 101" `Quick
      (reconcile_case ~engine:`Interp ~seed:101);
    Alcotest.test_case "census reconciles: threaded, seed 42" `Quick
      (reconcile_case ~engine:`Threaded ~seed:42);
    Alcotest.test_case "census reconciles: threaded, seed 7" `Quick
      (reconcile_case ~engine:`Threaded ~seed:7);
    Alcotest.test_case "census reconciles: threaded, seed 101" `Quick
      (reconcile_case ~engine:`Threaded ~seed:101);
    Alcotest.test_case "float: zero without ref churn (interp)" `Quick
      (float_zero_case ~engine:`Interp);
    Alcotest.test_case "float: zero without ref churn (threaded)" `Quick
      (float_zero_case ~engine:`Threaded);
    Alcotest.test_case "verdict log gated off by default" `Quick
      test_verdict_log_gated;
    QCheck_alcotest.to_alcotest qcheck_reconcile;
  ]
