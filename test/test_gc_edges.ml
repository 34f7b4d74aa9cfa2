(* Collector edge cases exercised directly on hand-built heaps — no
   interpreter in the loop. *)

module H = Jrt.Heap
module M = Jrt.Marker

let satb_marker ?steps_per_increment ?buffer_capacity ?array_chunk heap roots =
  M.create ?steps_per_increment
    (Jrt.Satb_gc.policy ?buffer_capacity ?array_chunk ())
    heap ~roots:(M.fixed_roots roots)

let incr_marker ?steps_per_increment heap roots =
  M.create ?steps_per_increment Jrt.Incr_gc.policy heap
    ~roots:(M.fixed_roots roots)

let mk_chain heap n =
  (* a linked chain of n objects; returns (head, all ids) *)
  let objs = List.init n (fun _ -> H.alloc_object heap "C" ~n_fields:1) in
  let rec link = function
    | a :: (b :: _ as rest) ->
        (match a.H.payload with
        | H.Fields fs -> fs.(0) <- Jrt.Value.Ref b.H.id
        | _ -> assert false);
        link rest
    | _ -> ()
  in
  link objs;
  (List.hd objs, List.map (fun o -> o.H.id) objs)

let test_satb_basic_cycle () =
  let heap = H.create () in
  let head, ids = mk_chain heap 10 in
  let garbage = H.alloc_object heap "C" ~n_fields:0 in
  let gc = satb_marker ~steps_per_increment:2 heap (fun () -> [ head.H.id ]) in
  M.start_cycle gc;
  while not (M.quiescent gc) do
    M.step gc
  done;
  let r = M.finish_cycle gc in
  Alcotest.(check int) "snapshot = chain" (List.length ids) r.snapshot_size;
  Alcotest.(check int) "no violations" 0 r.violations;
  Alcotest.(check int) "garbage swept" 1 r.swept;
  Alcotest.(check bool) "garbage dead" true garbage.H.dead;
  List.iter
    (fun id ->
      Alcotest.(check bool) "chain live" false (H.get heap id).H.dead)
    ids

let test_satb_buffer_capacity_and_remnant () =
  (* log fewer entries than the buffer capacity: the concurrent phase
     never sees them; the remark pause drains them *)
  let heap = H.create () in
  let head, _ = mk_chain heap 3 in
  let hidden = H.alloc_object heap "C" ~n_fields:0 in
  (* hidden reachable only via head.f0 *)
  (match head.H.payload with
  | H.Fields fs -> fs.(0) <- Jrt.Value.Ref hidden.H.id
  | _ -> assert false);
  let gc =
    satb_marker ~steps_per_increment:100 ~buffer_capacity:32 heap (fun () ->
        [ head.H.id ])
  in
  M.start_cycle gc;
  (* the mutator overwrites head.f0 before the collector scans it...
     actually start_cycle grays the root immediately; to exercise the
     buffer we log a pre-value explicitly *)
  M.log_ref_store gc ~obj:head.H.id ~pre:(Jrt.Value.Ref hidden.H.id);
  (match head.H.payload with
  | H.Fields fs -> fs.(0) <- Jrt.Value.Null
  | _ -> assert false);
  while not (M.quiescent gc) do
    M.step gc
  done;
  (* quiescent although the local buffer still holds the logged entry *)
  Alcotest.(check int) "entry still local" 1 gc.M.local_count;
  let r = M.finish_cycle gc in
  Alcotest.(check int) "no violations" 0 r.violations;
  Alcotest.(check bool) "remark did the work" true (r.final_pause_work >= 1);
  Alcotest.(check bool) "hidden survived via the log" false hidden.H.dead

let test_satb_buffer_handoff_when_full () =
  let heap = H.create () in
  let head, _ = mk_chain heap 2 in
  let gc =
    satb_marker ~steps_per_increment:1 ~buffer_capacity:4 heap (fun () ->
        [ head.H.id ])
  in
  M.start_cycle gc;
  for _ = 1 to 4 do
    M.log_ref_store gc ~obj:head.H.id ~pre:(Jrt.Value.Ref head.H.id)
  done;
  (* capacity reached: the buffer was handed to the collector *)
  Alcotest.(check int) "local buffer empty after handoff" 0 gc.M.local_count;
  Alcotest.(check bool) "collector sees entries" true (gc.M.buffer <> []);
  ignore (M.finish_cycle gc)

let test_satb_chunked_scan_of_large_array () =
  let heap = H.create () in
  let arr = H.alloc_ref_array heap "C" ~len:64 in
  let elems = List.init 64 (fun _ -> H.alloc_object heap "C" ~n_fields:0) in
  (match arr.H.payload with
  | H.Ref_array es ->
      List.iteri (fun i o -> es.(i) <- Jrt.Value.Ref o.H.id) elems
  | _ -> assert false);
  let gc =
    satb_marker ~steps_per_increment:1 ~array_chunk:4 heap (fun () ->
        [ arr.H.id ])
  in
  M.start_cycle gc;
  let increments = ref 0 in
  while not (M.quiescent gc) do
    M.step gc;
    incr increments
  done;
  let r = M.finish_cycle gc in
  Alcotest.(check int) "all 65 marked" 65 r.marked;
  Alcotest.(check int) "no violations" 0 r.violations;
  (* 64 slots at 4 per chunk means many increments, proving chunking *)
  Alcotest.(check bool) "scan was incremental" true (!increments >= 8)

let test_satb_empty_and_tiny_arrays () =
  let heap = H.create () in
  let empty = H.alloc_ref_array heap "C" ~len:0 in
  let one = H.alloc_ref_array heap "C" ~len:1 in
  let o = H.alloc_object heap "C" ~n_fields:0 in
  (match one.H.payload with
  | H.Ref_array es -> es.(0) <- Jrt.Value.Ref o.H.id
  | _ -> assert false);
  let gc =
    satb_marker ~steps_per_increment:1 ~array_chunk:1 heap (fun () ->
        [ empty.H.id; one.H.id ])
  in
  M.start_cycle gc;
  while not (M.quiescent gc) do
    M.step gc
  done;
  let r = M.finish_cycle gc in
  Alcotest.(check int) "three objects marked" 3 r.marked;
  Alcotest.(check int) "no violations" 0 r.violations

let test_satb_allocate_black_not_swept () =
  let heap = H.create () in
  let head, _ = mk_chain heap 2 in
  let gc = satb_marker heap (fun () -> [ head.H.id ]) in
  M.start_cycle gc;
  let newborn = H.alloc_object heap "C" ~n_fields:0 in
  M.on_alloc gc newborn;
  Alcotest.(check bool) "allocated black" true newborn.H.marked;
  let r = M.finish_cycle gc in
  Alcotest.(check int) "nothing swept" 0 r.swept;
  Alcotest.(check bool) "newborn alive despite being unreachable" false
    newborn.H.dead

let test_incr_new_objects_traced_in_pause () =
  (* incremental update allocates white: a new object published into a
     marked root object must be found by the final pause *)
  let heap = H.create () in
  let head, _ = mk_chain heap 2 in
  let gc =
    incr_marker ~steps_per_increment:100 heap (fun () -> [ head.H.id ])
  in
  M.start_cycle gc;
  M.step gc;
  (* collector believes it is done *)
  Alcotest.(check bool) "quiescent" true (M.quiescent gc);
  let newborn = H.alloc_object heap "C" ~n_fields:0 in
  M.on_alloc gc newborn;
  Alcotest.(check bool) "allocated white" false newborn.H.marked;
  (match head.H.payload with
  | H.Fields fs -> fs.(0) <- Jrt.Value.Ref newborn.H.id
  | _ -> assert false);
  M.log_ref_store gc ~obj:head.H.id ~pre:Jrt.Value.Null;
  let r = M.finish_cycle gc in
  Alcotest.(check int) "no violations" 0 r.violations;
  (* marks are cleared by finish_cycle; survival of the sweep is the
     observable proof the dirty card led the pause to the newborn *)
  Alcotest.(check bool) "newborn found via dirty card" false newborn.H.dead;
  Alcotest.(check bool) "pause did real work" true (r.final_pause_work > 0)

let test_incr_unlogged_store_is_missed () =
  (* the card barrier is load-bearing: the same scenario without the log
     loses the new object (and the oracle catches it) *)
  let heap = H.create () in
  let head, _ = mk_chain heap 2 in
  let gc =
    incr_marker ~steps_per_increment:100 heap (fun () -> [ head.H.id ])
  in
  M.start_cycle gc;
  M.step gc;
  let newborn = H.alloc_object heap "C" ~n_fields:0 in
  M.on_alloc gc newborn;
  (match head.H.payload with
  | H.Fields fs -> fs.(0) <- Jrt.Value.Ref newborn.H.id
  | _ -> assert false);
  (* no log_ref_store call: simulates a wrongly elided card mark; the
     root rescan does not help because head is already marked *)
  let r = M.finish_cycle gc in
  Alcotest.(check bool) "violation detected" true (r.violations > 0)

let tests =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("satb basic cycle", test_satb_basic_cycle);
      ("satb buffer remnant", test_satb_buffer_capacity_and_remnant);
      ("satb buffer handoff", test_satb_buffer_handoff_when_full);
      ("satb chunked array scan", test_satb_chunked_scan_of_large_array);
      ("satb tiny arrays", test_satb_empty_and_tiny_arrays);
      ("satb allocate black", test_satb_allocate_black_not_swept);
      ("incr new object via card", test_incr_new_objects_traced_in_pause);
      ("incr unlogged store missed", test_incr_unlogged_store_is_missed);
    ]
