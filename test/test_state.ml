(* Unit and property tests for the abstract state: merging, escape
   closure, allocation-site retirement, null-or-same fact management. *)

module S = Satb_core.State
module Sym = Satb_core.Refsym
module I = Satb_core.Intval
module F = Satb_core.Field_id

let rs = Sym.Set.of_list
let f_a = F.F ("C", "a")
let f_b = F.F ("C", "b")
let a0 = Sym.recent 0
let b0 = Sym.summary 0
let a1 = Sym.recent 1

let empty_state ~locals : S.t =
  {
    rho = Array.make locals S.Bot;
    stk = [];
    nl = Sym.Set.singleton Sym.Global;
    sigma = S.Sigma.empty;
    len = S.Rmap.empty;
    nr = S.Rmap.empty;
    shift = None;
  }

let state_eq : S.t Alcotest.testable = Alcotest.testable S.pp S.equal

(* ---- lookups ----------------------------------------------------------- *)

let test_lookup_global () =
  let s = empty_state ~locals:1 in
  match S.lookup_field s Sym.Global f_a with
  | S.Ref { refs; _ } ->
      Alcotest.(check bool) "global collapses" true
        (Sym.Set.equal refs (rs [ Sym.Global ]))
  | _ -> Alcotest.fail "expected ref"

let test_lookup_non_tl_is_global () =
  let s = empty_state ~locals:1 in
  let s = { s with nl = Sym.Set.add a0 s.nl } in
  let s = { s with sigma = S.Sigma.add (a0, f_a) S.null_v s.sigma } in
  match S.lookup_field s a0 f_a with
  | S.Ref { refs; _ } ->
      Alcotest.(check bool) "NL lookup gives Global" true
        (Sym.Set.equal refs (rs [ Sym.Global ]))
  | _ -> Alcotest.fail "expected ref"

let test_lookup_recorded () =
  let s = empty_state ~locals:1 in
  let s = { s with sigma = S.Sigma.add (a0, f_a) S.null_v s.sigma } in
  match S.lookup_field s a0 f_a with
  | S.Ref { refs; _ } ->
      Alcotest.(check bool) "definitely null" true (Sym.Set.is_empty refs)
  | _ -> Alcotest.fail "expected ref"

(* ---- escape closure ---------------------------------------------------- *)

let test_escape_transitive () =
  (* a0.a = a1; escaping a0 must also escape a1 (AllNonTL closure) *)
  let s = empty_state ~locals:1 in
  let s =
    { s with sigma = S.Sigma.add (a0, f_a) (S.ref_of (rs [ a1 ])) s.sigma }
  in
  let s = S.all_non_tl s (rs [ a0 ]) in
  Alcotest.(check bool) "a0 escaped" true (Sym.Set.mem a0 s.nl);
  Alcotest.(check bool) "a1 escaped transitively" true (Sym.Set.mem a1 s.nl)

let test_escape_cond_only_when_receiver_escaped () =
  let s = empty_state ~locals:1 in
  let local_store =
    S.all_non_tl_cond s ~objs:(rs [ a0 ]) ~value:(S.ref_of (rs [ a1 ]))
  in
  Alcotest.(check bool) "store into thread-local: no escape" false
    (Sym.Set.mem a1 local_store.nl);
  let s2 = { s with nl = Sym.Set.add a0 s.nl } in
  let escaped_store =
    S.all_non_tl_cond s2 ~objs:(rs [ a0 ]) ~value:(S.ref_of (rs [ a1 ]))
  in
  Alcotest.(check bool) "store into escaped: value escapes" true
    (Sym.Set.mem a1 escaped_store.nl)

let test_escape_args () =
  let s = empty_state ~locals:1 in
  let s = S.escape_args s [ S.ref_of (rs [ a0 ]); S.Int I.top ] in
  Alcotest.(check bool) "ref arg escapes" true (Sym.Set.mem a0 s.nl)

(* ---- retire_site (§2.4 newinstance) ------------------------------------ *)

let test_retire_substitutes_everywhere () =
  let s = empty_state ~locals:2 in
  let s = S.set_local s 0 (S.ref_of (rs [ a0 ])) in
  let s = S.push (S.ref_of (rs [ a0; a1 ])) s in
  let s =
    { s with sigma = S.Sigma.add (a1, f_a) (S.ref_of (rs [ a0 ])) s.sigma }
  in
  let s = { s with nl = Sym.Set.add a0 s.nl } in
  let s = S.retire_site s 0 in
  (match S.local s 0 with
  | S.Ref { refs; _ } ->
      Alcotest.(check bool) "local substituted" true
        (Sym.Set.equal refs (rs [ b0 ]))
  | _ -> Alcotest.fail "expected ref");
  (match s.stk with
  | [ S.Ref { refs; _ } ] ->
      Alcotest.(check bool) "stack substituted" true
        (Sym.Set.equal refs (rs [ b0; a1 ]))
  | _ -> Alcotest.fail "expected one stack slot");
  (match S.Sigma.find_opt (a1, f_a) s.sigma with
  | Some (S.Ref { refs; _ }) ->
      Alcotest.(check bool) "sigma range substituted" true
        (Sym.Set.equal refs (rs [ b0 ]))
  | _ -> Alcotest.fail "expected sigma entry");
  Alcotest.(check bool) "NL substituted" true (Sym.Set.mem b0 s.nl);
  Alcotest.(check bool) "A gone from NL" false (Sym.Set.mem a0 s.nl)

let test_retire_merges_sigma_entries () =
  (* both (A,f) and (B,f) exist: they merge by union *)
  let s = empty_state ~locals:1 in
  let s =
    {
      s with
      sigma =
        S.Sigma.add (a0, f_a) (S.ref_of (rs [ a1 ]))
          (S.Sigma.add (b0, f_a) (S.ref_of (rs [ Sym.Global ])) s.sigma);
    }
  in
  let s = S.retire_site s 0 in
  match S.Sigma.find_opt (b0, f_a) s.sigma with
  | Some (S.Ref { refs; _ }) ->
      Alcotest.(check bool) "merged by union" true
        (Sym.Set.equal refs (rs [ a1; Sym.Global ]))
  | _ -> Alcotest.fail "expected merged entry"

(* ---- merge ------------------------------------------------------------- *)

let gen () = I.Gen.create ()

let test_merge_rho_union () =
  let s1 = S.set_local (empty_state ~locals:1) 0 (S.ref_of (rs [ a0 ])) in
  let s2 = S.set_local (empty_state ~locals:1) 0 (S.ref_of (rs [ a1 ])) in
  let m = S.merge ~gen:(gen ()) s1 s2 in
  match S.local m 0 with
  | S.Ref { refs; _ } ->
      Alcotest.(check bool) "union" true (Sym.Set.equal refs (rs [ a0; a1 ]))
  | _ -> Alcotest.fail "expected ref"

let test_merge_bot_identity () =
  let s1 = S.set_local (empty_state ~locals:1) 0 (S.ref_of (rs [ a0 ])) in
  let s2 = empty_state ~locals:1 in
  let m = S.merge ~gen:(gen ()) s1 s2 in
  Alcotest.check state_eq "⊥ is identity" s1 m

let test_merge_stack_mismatch_raises () =
  let s1 = S.push S.null_v (empty_state ~locals:1) in
  let s2 = empty_state ~locals:1 in
  Alcotest.check_raises "stack mismatch"
    (Invalid_argument "State.merge: operand stack mismatch") (fun () ->
      ignore (S.merge ~gen:(gen ()) s1 s2))

let test_merge_sigma_missing_is_bottom () =
  let s1 =
    {
      (empty_state ~locals:1) with
      sigma = S.Sigma.add (a0, f_a) S.null_v S.Sigma.empty;
    }
  in
  let s2 = empty_state ~locals:1 in
  let m = S.merge ~gen:(gen ()) s1 s2 in
  match S.Sigma.find_opt (a0, f_a) m.sigma with
  | Some (S.Ref { refs; _ }) ->
      Alcotest.(check bool) "kept as definitely null" true
        (Sym.Set.is_empty refs)
  | _ -> Alcotest.fail "expected entry"

let test_merge_nos_survives_via_sigma_null () =
  (* side 1 carries the fact, side 2's σ shows the field null: the fact
     survives the merge (the §4.3 disjunction) *)
  let fact = (a0, f_a) in
  let v1 = S.Ref (S.mk_refinfo ~nos:(S.Nos.singleton fact) (rs [ Sym.Global ])) in
  let v2 = S.Ref (S.mk_refinfo (rs [ Sym.Global ])) in
  let s1 = S.set_local (empty_state ~locals:1) 0 v1 in
  let s2 = S.set_local (empty_state ~locals:1) 0 v2 in
  let s2 = { s2 with sigma = S.Sigma.add fact S.null_v s2.sigma } in
  let m = S.merge ~gen:(gen ()) s1 s2 in
  (match S.local m 0 with
  | S.Ref { nos; _ } ->
      Alcotest.(check bool) "fact survives" true (S.Nos.mem fact nos)
  | _ -> Alcotest.fail "expected ref");
  (* without the σ-null justification it must die *)
  let s2' = S.set_local (empty_state ~locals:1) 0 v2 in
  let m' = S.merge ~gen:(gen ()) s1 s2' in
  match S.local m' 0 with
  | S.Ref { nos; _ } ->
      Alcotest.(check bool) "fact dies" false (S.Nos.mem fact nos)
  | _ -> Alcotest.fail "expected ref"

let test_kill_nos () =
  let fact = (a0, f_a) in
  let other = (a0, f_b) in
  let v = S.Ref (S.mk_refinfo ~nos:(S.Nos.of_list [ fact; other ]) (rs [])) in
  let s = S.set_local (empty_state ~locals:1) 0 v in
  let s = S.kill_nos s [ fact ] in
  match S.local s 0 with
  | S.Ref { nos; _ } ->
      Alcotest.(check bool) "killed" false (S.Nos.mem fact nos);
      Alcotest.(check bool) "other kept" true (S.Nos.mem other nos)
  | _ -> Alcotest.fail "expected ref"

(* ---- properties -------------------------------------------------------- *)

let mk_state refs_list : S.t =
  let s = empty_state ~locals:(List.length refs_list) in
  List.fold_left
    (fun (i, s) refs -> (i + 1, S.set_local s i (S.ref_of refs)))
    (0, s) refs_list
  |> snd

let prop_merge_commutative_refs =
  QCheck2.Test.make ~name:"state merge commutes on ref locals" ~count:200
    (QCheck2.Gen.pair Gen.refset Gen.refset) (fun (r1, r2) ->
      let s1 = mk_state [ r1 ] and s2 = mk_state [ r2 ] in
      let m12 = S.merge ~gen:(gen ()) s1 s2 in
      let m21 = S.merge ~gen:(gen ()) s2 s1 in
      match S.local m12 0, S.local m21 0 with
      | S.Ref a, S.Ref b -> Sym.Set.equal a.refs b.refs
      | _ -> false)

let prop_merge_upper_bound =
  QCheck2.Test.make ~name:"merge over-approximates both inputs" ~count:200
    (QCheck2.Gen.pair Gen.refset Gen.refset) (fun (r1, r2) ->
      let s1 = mk_state [ r1 ] and s2 = mk_state [ r2 ] in
      let m = S.merge ~gen:(gen ()) s1 s2 in
      match S.local m 0 with
      | S.Ref a -> Sym.Set.subset r1 a.refs && Sym.Set.subset r2 a.refs
      | _ -> false)

let prop_escape_monotone =
  QCheck2.Test.make ~name:"all_non_tl only grows NL" ~count:200
    (QCheck2.Gen.pair Gen.refset Gen.refset) (fun (nl0, rs') ->
      let s = { (empty_state ~locals:1) with nl = nl0 } in
      let s' = S.all_non_tl s rs' in
      Sym.Set.subset nl0 s'.nl && Sym.Set.subset rs' s'.nl)

(* Set and map iteration order feeds symbol recycling, explanations and
   the analysis golden, so the monomorphic comparators must order exactly
   like the polymorphic one they replaced. *)
let sign n = Int.compare n 0

let wide_refsym =
  let open QCheck2.Gen in
  oneof
    [
      return Sym.Global;
      map (fun i -> Sym.Arg i) (int_range (-2) 6);
      map2
        (fun site recent -> Sym.Alloc { site; recent })
        (int_range (-2) 40) bool;
    ]

let prop_refsym_compare_order =
  QCheck2.Test.make ~name:"Refsym.compare orders like Stdlib.compare"
    ~count:2000 (QCheck2.Gen.pair wide_refsym wide_refsym) (fun (a, b) ->
      sign (Sym.compare a b) = sign (Stdlib.compare a b)
      && Sym.equal a b = (Stdlib.compare a b = 0))

let prop_field_id_compare_order =
  QCheck2.Test.make ~name:"Field_id.compare orders like Stdlib.compare"
    ~count:2000 (QCheck2.Gen.pair Gen.field_id Gen.field_id) (fun (a, b) ->
      let module F = Satb_core.Field_id in
      sign (F.compare a b) = sign (Stdlib.compare a b)
      && F.equal a b = (Stdlib.compare a b = 0))

let unit_tests =
  [
    ("lookup global", test_lookup_global);
    ("lookup non-thread-local", test_lookup_non_tl_is_global);
    ("lookup recorded", test_lookup_recorded);
    ("escape transitive", test_escape_transitive);
    ("escape conditional", test_escape_cond_only_when_receiver_escaped);
    ("escape args", test_escape_args);
    ("retire substitutes", test_retire_substitutes_everywhere);
    ("retire merges sigma", test_retire_merges_sigma_entries);
    ("merge rho union", test_merge_rho_union);
    ("merge bot identity", test_merge_bot_identity);
    ("merge stack mismatch", test_merge_stack_mismatch_raises);
    ("merge sigma bottom", test_merge_sigma_missing_is_bottom);
    ("merge nos disjunction", test_merge_nos_survives_via_sigma_null);
    ("kill_nos", test_kill_nos);
  ]

let tests =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f) unit_tests
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_merge_commutative_refs;
        prop_merge_upper_bound;
        prop_escape_monotone;
        prop_refsym_compare_order;
        prop_field_id_compare_order;
      ]
