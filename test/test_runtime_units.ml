(* Unit tests for the runtime substrate pieces that the bigger GC and
   interpreter tests exercise only indirectly: heap bookkeeping, the
   reachability oracle, and the barrier cost model. *)

(* ---- Heap -------------------------------------------------------------- *)

let test_heap_alloc_and_zeroing () =
  let h = Jrt.Heap.create () in
  let o = Jrt.Heap.alloc_object h "C" ~n_fields:3 in
  (match o.payload with
  | Jrt.Heap.Fields fs ->
      Alcotest.(check int) "field count" 3 (Array.length fs);
      Array.iter
        (fun v -> Alcotest.(check bool) "null" true (v = Jrt.Value.Null))
        fs
  | _ -> Alcotest.fail "expected object");
  let a = Jrt.Heap.alloc_ref_array h "C" ~len:4 in
  (match a.payload with
  | Jrt.Heap.Ref_array es ->
      Array.iter
        (fun v -> Alcotest.(check bool) "null elem" true (v = Jrt.Value.Null))
        es
  | _ -> Alcotest.fail "expected ref array");
  let ia = Jrt.Heap.alloc_int_array h ~len:2 in
  (match ia.payload with
  | Jrt.Heap.Int_array es ->
      Alcotest.(check (array int)) "zeroed" [| 0; 0 |] es
  | _ -> Alcotest.fail "expected int array");
  Alcotest.(check int) "ids sequential" 2 ia.id;
  Alcotest.(check int) "live count" 3 h.live_count;
  Alcotest.(check int) "total allocated" 3 h.total_allocated

let test_heap_growth () =
  let h = Jrt.Heap.create () in
  for _ = 1 to 3000 do
    ignore (Jrt.Heap.alloc_object h "C" ~n_fields:1)
  done;
  Alcotest.(check int) "3000 live" 3000 h.live_count;
  Alcotest.(check string) "retrievable past initial capacity" "C"
    (Jrt.Heap.get h 2999).cls

let test_heap_free_and_marks () =
  let h = Jrt.Heap.create () in
  let a = Jrt.Heap.alloc_object h "C" ~n_fields:0 in
  let b = Jrt.Heap.alloc_object h "C" ~n_fields:0 in
  a.marked <- true;
  Jrt.Heap.free h b;
  Alcotest.(check int) "one live" 1 h.live_count;
  Alcotest.(check bool) "b dead" true b.dead;
  let seen = ref 0 in
  Jrt.Heap.iter_live h (fun _ -> incr seen);
  Alcotest.(check int) "iter_live skips dead" 1 !seen;
  Jrt.Heap.clear_marks h;
  Alcotest.(check bool) "marks cleared" false a.marked;
  (* double free is idempotent *)
  Jrt.Heap.free h b;
  Alcotest.(check int) "still one live" 1 h.live_count

let test_out_edges () =
  let h = Jrt.Heap.create () in
  let a = Jrt.Heap.alloc_object h "C" ~n_fields:2 in
  let b = Jrt.Heap.alloc_object h "C" ~n_fields:0 in
  (match a.payload with
  | Jrt.Heap.Fields fs ->
      fs.(0) <- Jrt.Value.Ref b.id;
      fs.(1) <- Jrt.Value.Int 7
  | _ -> assert false);
  Alcotest.(check (list int)) "edges" [ b.id ] (Jrt.Heap.out_edges a);
  Alcotest.(check (list int)) "int arrays edgeless" []
    (Jrt.Heap.out_edges (Jrt.Heap.alloc_int_array h ~len:3));
  (* iter_edges visits the same slots in the same order *)
  let arr = Jrt.Heap.alloc_ref_array h "C" ~len:4 in
  (match arr.payload with
  | Jrt.Heap.Ref_array es ->
      es.(0) <- Jrt.Value.Ref b.id;
      es.(2) <- Jrt.Value.Ref a.id;
      es.(3) <- Jrt.Value.Ref b.id
  | _ -> assert false);
  List.iter
    (fun o ->
      let seen = ref [] in
      Jrt.Heap.iter_edges (fun id -> seen := id :: !seen) o;
      Alcotest.(check (list int)) "iter_edges = out_edges"
        (Jrt.Heap.out_edges o) (List.rev !seen))
    [ a; b; arr ]

(* ---- Oracle ------------------------------------------------------------ *)

let test_oracle_reachability () =
  let h = Jrt.Heap.create () in
  let mk () = Jrt.Heap.alloc_object h "C" ~n_fields:1 in
  let a = mk () and b = mk () and c = mk () and d = mk () in
  let link x y =
    match x.Jrt.Heap.payload with
    | Jrt.Heap.Fields fs -> fs.(0) <- Jrt.Value.Ref y.Jrt.Heap.id
    | _ -> assert false
  in
  link a b;
  link b c;
  (* d unlinked; cycle c -> a *)
  link c a;
  let set = Jrt.Oracle.reachable h [ a.id ] in
  Alcotest.(check int) "a,b,c reachable" 3 (Jrt.Oracle.Ids.cardinal set);
  Alcotest.(check bool) "d not reachable" false
    (Jrt.Oracle.Ids.mem d.id set);
  Alcotest.(check int) "empty roots" 0
    (Jrt.Oracle.Ids.cardinal (Jrt.Oracle.reachable h []))

(* The bitmap set against the [Set]-based reachability it replaced, kept
   here as the reference: on random object graphs (objects, object
   arrays and int arrays, some freed, random roots) the two agree on
   cardinal, membership and ascending iteration order.  One set is
   refilled throughout, as the marker refills its snapshot. *)
module Iset = Set.Make (Int)

let reference_reachable (heap : Jrt.Heap.t) (roots : int list) : Iset.t =
  let rec go seen = function
    | [] -> seen
    | id :: todo ->
        if Iset.mem id seen then go seen todo
        else
          let o = Jrt.Heap.get heap id in
          go (Iset.add id seen) (List.rev_append (Jrt.Heap.out_edges o) todo)
  in
  go Iset.empty roots

let gen_graph =
  let open QCheck2.Gen in
  let* n = int_range 1 150 in
  let* shapes = list_repeat n (pair (int_range 0 2) (int_range 0 5)) in
  let* edges = list_size (int_range 0 (3 * n)) (triple (int_bound (n - 1)) nat (int_bound (n - 1))) in
  let* freed = list_size (int_range 0 5) (int_bound (n - 1)) in
  let* roots = list_size (int_range 0 6) (int_bound (n - 1)) in
  return (shapes, edges, freed, roots)

let shared_set = Jrt.Oracle.Ids.create ()

let prop_oracle_matches_reference =
  QCheck2.Test.make ~name:"bitmap oracle = Set-based reachability" ~count:300
    gen_graph (fun (shapes, edges, freed, roots) ->
      let h = Jrt.Heap.create () in
      let objs =
        Array.of_list
          (List.map
             (fun (kind, size) ->
               match kind with
               | 0 -> Jrt.Heap.alloc_object h "C" ~n_fields:size
               | 1 -> Jrt.Heap.alloc_ref_array h "C" ~len:size
               | _ -> Jrt.Heap.alloc_int_array h ~len:size)
             shapes)
      in
      List.iter
        (fun (src, slot, dst) ->
          match objs.(src).Jrt.Heap.payload with
          | Jrt.Heap.Fields vs | Jrt.Heap.Ref_array vs ->
              if Array.length vs > 0 then
                vs.(slot mod Array.length vs) <-
                  Jrt.Value.Ref objs.(dst).Jrt.Heap.id
          | Jrt.Heap.Int_array _ -> ())
        edges;
      List.iter (fun i -> Jrt.Heap.free h objs.(i)) freed;
      let expected = reference_reachable h roots in
      Jrt.Oracle.reachable_into shared_set h roots;
      let fresh = Jrt.Oracle.reachable h roots in
      let elements s = List.rev (Jrt.Oracle.Ids.fold List.cons s []) in
      let iterated s =
        let acc = ref [] in
        Jrt.Oracle.Ids.iter (fun id -> acc := id :: !acc) s;
        List.rev !acc
      in
      List.for_all
        (fun s ->
          Jrt.Oracle.Ids.cardinal s = Iset.cardinal expected
          && Array.for_all
               (fun (o : Jrt.Heap.obj) ->
                 Jrt.Oracle.Ids.mem o.id s = Iset.mem o.id expected)
               objs
          && (not (Jrt.Oracle.Ids.mem (Array.length objs) s))
          && (not (Jrt.Oracle.Ids.mem (-1) s))
          && iterated s = Iset.elements expected
          && elements s = Iset.elements expected)
        [ shared_set; fresh ])

(* ---- Barrier cost model ------------------------------------------------ *)

let test_satb_costs_match_paper_band () =
  let open Jrt.Barrier_cost in
  (* paper §1: 9-12 RISC instructions when marking is in progress *)
  let active_prenull =
    satb_cost ~mode:Conditional ~marking:true ~pre_null:true
  in
  let active_log =
    satb_cost ~mode:Conditional ~marking:true ~pre_null:false
  in
  Alcotest.(check bool) "active barrier in the 7..12 band" true
    (active_prenull >= 7 && active_log <= 12 && active_log > active_prenull);
  (* idle barrier is just the check *)
  Alcotest.(check int) "idle = flag check" check_marking
    (satb_cost ~mode:Conditional ~marking:false ~pre_null:true);
  (* no-barrier mode is free *)
  Alcotest.(check int) "no-barrier" 0
    (satb_cost ~mode:No_barrier ~marking:true ~pre_null:false);
  (* always-log skips the check *)
  Alcotest.(check int) "always-log saves the check" (active_log - check_marking)
    (satb_cost ~mode:Always_log ~marking:true ~pre_null:false)

(* ---- Builder ----------------------------------------------------------- *)

let test_builder_errors () =
  Alcotest.check_raises "locals < params"
    (Jir.Builder.Build_error "method m: 0 locals < 1 params") (fun () ->
      ignore
        (Jir.Builder.create ~name:"m" ~params:[ Jir.Types.I ] ~locals:0 ()));
  let b = Jir.Builder.create ~name:"m" ~params:[] ~locals:0 () in
  Jir.Builder.label b "x";
  Alcotest.check_raises "duplicate label"
    (Jir.Builder.Build_error "method m: duplicate label x") (fun () ->
      Jir.Builder.label b "x");
  Jir.Builder.emit b (Jir.Types.Goto "nowhere");
  Alcotest.check_raises "unresolved label"
    (Jir.Builder.Build_error "method m: undefined label nowhere") (fun () ->
      ignore (Jir.Builder.finish b))

let test_builder_label_resolution () =
  let m =
    Jir.Builder.meth "m" ~params:[] ~locals:1 (fun b ->
        Jir.Builder.emit b (Jir.Types.Goto "end");
        Jir.Builder.label b "end";
        Jir.Builder.emit b Jir.Types.Return)
  in
  Alcotest.(check bool) "goto resolved to pc 1" true
    (m.code.(0) = Jir.Types.Goto 1);
  Alcotest.(check (list (pair int string))) "label recorded" [ (1, "end") ]
    m.labels

let tests =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("heap alloc + zeroing", test_heap_alloc_and_zeroing);
      ("heap growth", test_heap_growth);
      ("heap free + marks", test_heap_free_and_marks);
      ("out edges", test_out_edges);
      ("oracle reachability", test_oracle_reachability);
      ("barrier costs in paper band", test_satb_costs_match_paper_band);
      ("builder errors", test_builder_errors);
      ("builder label resolution", test_builder_label_resolution);
    ]
  @ [ QCheck_alcotest.to_alcotest prop_oracle_matches_reference ]
