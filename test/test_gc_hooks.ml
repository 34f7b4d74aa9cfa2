(* Unit tests for the mutator/collector hook contract (Gc_hooks): which
   collectors honour on_unlogged_store, what the capability bits say,
   and how the hooks behave while the collector is idle. *)

module M = Jrt.Marker

let mk_heap_with_objs n =
  let heap = Jrt.Heap.create () in
  let objs =
    List.init n (fun _ -> (Jrt.Heap.alloc_object heap "T" ~n_fields:2).id)
  in
  (heap, objs)

let create ?steps_per_increment policy heap objs =
  M.create ?steps_per_increment policy heap
    ~roots:(M.fixed_roots (fun () -> objs))

(* --- none ------------------------------------------------------------- *)

let test_none_hooks () =
  let h = Jrt.Gc_hooks.none in
  Alcotest.(check bool) "never marking" false (h.is_marking ());
  (* every hook is a no-op; in particular the tracing-state check and the
     revocation repair must be safely ignorable *)
  h.log_ref_store ~obj:0 ~pre:Jrt.Value.Null;
  h.on_unlogged_store ~obj:0;
  h.on_revoke ~objs:[ 0; 1; 2 ];
  h.step ();
  Alcotest.(check bool) "still not marking" false (h.is_marking ());
  (* [none] vacuously satisfies every capability: it never marks, so no
     elision can ever be observed by a scan *)
  Alcotest.(check bool) "caps.retrace" true h.caps.retrace_protocol;
  Alcotest.(check bool) "caps.descending" true h.caps.descending_scan

(* --- every collector, idle --------------------------------------------- *)

let collectors =
  [
    ("satb", Jrt.Satb_gc.policy ());
    ("incr", Jrt.Incr_gc.policy);
    ("retrace", Jrt.Retrace_gc.policy ());
    ("hybrid", Jrt.Hybrid_gc.policy);
  ]

let test_idle_contracts () =
  List.iter
    (fun (name, policy) ->
      let heap, objs = mk_heap_with_objs 2 in
      let a, b = match objs with [ a; b ] -> (a, b) | _ -> assert false in
      let t = create policy heap objs in
      let h = M.hooks t in
      let check what = Alcotest.(check bool) (name ^ ": " ^ what) in
      check "idle" false (h.is_marking ());
      let before = { t.counts with increments = t.counts.increments } in
      (* every hook a marking cycle would act on must be a no-op while
         idle: no log entry, card, shade, retrace entry or restart *)
      h.step ();
      h.log_ref_store ~obj:a ~pre:(Jrt.Value.Ref b);
      h.log_ins_store ~tid:0 ~nv:(Jrt.Value.Ref b);
      h.on_unlogged_store ~obj:a;
      h.on_revoke ~objs;
      h.on_alloc (Jrt.Heap.alloc_object heap "T" ~n_fields:0);
      check "still idle" false (h.is_marking ());
      check "no counter moved" true (t.counts = before);
      check "nothing marked" false
        (List.exists (fun id -> (Jrt.Heap.get heap id).marked) objs);
      check "no work queued" true
        (t.gray = [] && t.buffer = [] && t.local_buffer = [] && t.retrace = []
       && Jrt.Marker.Iset.is_empty t.dirty);
      check "not degraded" false t.degraded;
      M.start_cycle t;
      check "marking after start" true (h.is_marking ()))
    collectors

(* --- plain SATB ------------------------------------------------------- *)

let test_satb_ignores_unlogged () =
  let heap, objs = mk_heap_with_objs 3 in
  let t = create (Jrt.Satb_gc.policy ()) heap objs in
  let h = M.hooks t in
  Alcotest.(check bool) "no retrace protocol" false h.caps.retrace_protocol;
  Alcotest.(check bool) "descending by default" true h.caps.descending_scan;
  M.start_cycle t;
  let logged_before = t.counts.logged in
  h.on_unlogged_store ~obj:(List.hd objs);
  Alcotest.(check int) "nothing logged" logged_before t.counts.logged

let test_satb_ascending_caps () =
  let heap, objs = mk_heap_with_objs 1 in
  let t = create (Jrt.Satb_gc.policy ~direction:M.Ascending ()) heap objs in
  let h = M.hooks t in
  Alcotest.(check bool)
    "ascending scan forfeits the cap" false h.caps.descending_scan

let test_satb_revoke_restarts_mark () =
  let heap, objs = mk_heap_with_objs 2 in
  let t = create (Jrt.Satb_gc.policy ()) heap objs in
  let h = M.hooks t in
  M.start_cycle t;
  h.on_revoke ~objs:[ List.hd objs ];
  Alcotest.(check int) "one restart" 1 t.counts.restarts;
  Alcotest.(check bool) "still marking" true (h.is_marking ())

(* --- incremental update (card marking) -------------------------------- *)

let test_incr_ignores_unlogged () =
  let heap, objs = mk_heap_with_objs 3 in
  let t = create Jrt.Incr_gc.policy heap objs in
  let h = M.hooks t in
  Alcotest.(check bool) "no retrace protocol" false h.caps.retrace_protocol;
  Alcotest.(check bool) "no descending contract" false h.caps.descending_scan;
  M.start_cycle t;
  let dirtied = t.counts.logged in
  h.on_unlogged_store ~obj:(List.hd objs);
  Alcotest.(check int) "no card dirtied" dirtied t.counts.logged

let test_incr_repair_dirties () =
  let heap, objs = mk_heap_with_objs 2 in
  let t = create Jrt.Incr_gc.policy heap objs in
  let h = M.hooks t in
  M.start_cycle t;
  (* under incremental update, revocation repair dirties the written
     objects so the marker re-examines them *)
  h.on_revoke ~objs;
  Alcotest.(check bool) "repair dirtied cards" true (t.counts.logged > 0)

(* --- retrace ----------------------------------------------------------- *)

let test_retrace_caps () =
  let heap, objs = mk_heap_with_objs 2 in
  let h = M.hooks (create (Jrt.Retrace_gc.policy ()) heap objs) in
  Alcotest.(check bool) "retrace protocol" true h.caps.retrace_protocol;
  Alcotest.(check bool) "descending scan" true h.caps.descending_scan

let test_retrace_budget_watchdog () =
  let heap, objs = mk_heap_with_objs 4 in
  let t = create (Jrt.Retrace_gc.policy ~retrace_budget:1 ()) heap objs in
  let h = M.hooks t in
  M.start_cycle t;
  (* first enqueue is within budget; the second trips the watchdog but is
     still enqueued — dropping it would be unsound *)
  (match objs with
  | a :: b :: _ ->
      h.on_unlogged_store ~obj:a;
      Alcotest.(check bool) "within budget" false t.degraded;
      h.on_unlogged_store ~obj:b;
      Alcotest.(check bool) "degraded" true t.degraded;
      Alcotest.(check int) "both entries kept" 2 t.counts.enqueued
  | _ -> assert false);
  let report = M.finish_cycle t in
  Alcotest.(check bool) "report degraded" true report.degraded;
  Alcotest.(check bool)
    "overflow counted" true
    (report.counts.budget_overflows > 0);
  (* the degraded flag describes a cycle; it clears once the cycle ends *)
  Alcotest.(check bool) "cleared after cycle" false t.degraded

let tests =
  [
    Alcotest.test_case "none: all hooks are no-ops" `Quick test_none_hooks;
    Alcotest.test_case "all collectors: idle hooks are no-ops" `Quick
      test_idle_contracts;
    Alcotest.test_case "satb: ignores on_unlogged_store" `Quick
      test_satb_ignores_unlogged;
    Alcotest.test_case "satb: ascending scan drops the cap" `Quick
      test_satb_ascending_caps;
    Alcotest.test_case "satb: on_revoke restarts the mark" `Quick
      test_satb_revoke_restarts_mark;
    Alcotest.test_case "incr: ignores on_unlogged_store" `Quick
      test_incr_ignores_unlogged;
    Alcotest.test_case "incr: on_revoke repair dirties cards" `Quick
      test_incr_repair_dirties;
    Alcotest.test_case "retrace: caps" `Quick test_retrace_caps;
    Alcotest.test_case "retrace: budget watchdog degrades" `Quick
      test_retrace_budget_watchdog;
  ]
