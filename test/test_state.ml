(* Unit and property tests for the abstract state: merging, escape
   closure, allocation-site retirement, null-or-same fact management. *)

module S = Satb_core.State
module Sym = Satb_core.Refsym
module I = Satb_core.Intval
module F = Satb_core.Field_id
module P = Satb_core.Ptmap
open Jir.Types

let rs = Sym.Set.of_list

let prog =
  Jir.Program.of_program
    {
      classes =
        [
          {
            cname = "C";
            fields = [ { fd_name = "a"; fd_ty = R }; { fd_name = "b"; fd_ty = R } ];
            statics = [];
            methods = [];
          };
        ];
    }

let f_a = F.of_field_ref prog { fclass = "C"; fname = "a" }
let f_b = F.of_field_ref prog { fclass = "C"; fname = "b" }
let loc = S.Loc.make
let a0 = Sym.recent 0
let b0 = Sym.summary 0
let a1 = Sym.recent 1

let empty_state ~locals : S.t =
  {
    rho = Array.make locals S.Bot;
    stk = [];
    nl = Sym.Set.singleton Sym.global;
    sigma = P.empty;
    len = S.Rmap.empty;
    nr = S.Rmap.empty;
    shift = None;
  }

let state_eq : S.t Alcotest.testable = Alcotest.testable (S.pp prog) S.equal

(* ---- lookups ----------------------------------------------------------- *)

let test_lookup_global () =
  let s = empty_state ~locals:1 in
  match S.lookup_field s Sym.global f_a with
  | S.Ref { refs; _ } ->
      Alcotest.(check bool) "global collapses" true
        (Sym.Set.equal refs (rs [ Sym.global ]))
  | _ -> Alcotest.fail "expected ref"

let test_lookup_non_tl_is_global () =
  let s = empty_state ~locals:1 in
  let s = { s with nl = Sym.Set.add a0 s.nl } in
  let s = { s with sigma = P.add (loc a0 f_a) S.null_v s.sigma } in
  match S.lookup_field s a0 f_a with
  | S.Ref { refs; _ } ->
      Alcotest.(check bool) "NL lookup gives Global" true
        (Sym.Set.equal refs (rs [ Sym.global ]))
  | _ -> Alcotest.fail "expected ref"

let test_lookup_recorded () =
  let s = empty_state ~locals:1 in
  let s = { s with sigma = P.add (loc a0 f_a) S.null_v s.sigma } in
  match S.lookup_field s a0 f_a with
  | S.Ref { refs; _ } ->
      Alcotest.(check bool) "definitely null" true (Sym.Set.is_empty refs)
  | _ -> Alcotest.fail "expected ref"

(* ---- escape closure ---------------------------------------------------- *)

let test_escape_transitive () =
  (* a0.a = a1; escaping a0 must also escape a1 (AllNonTL closure) *)
  let s = empty_state ~locals:1 in
  let s =
    { s with sigma = P.add (loc a0 f_a) (S.ref_of (rs [ a1 ])) s.sigma }
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
    { s with sigma = P.add (loc a1 f_a) (S.ref_of (rs [ a0 ])) s.sigma }
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
  (match P.find_opt (loc a1 f_a) s.sigma with
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
        P.add (loc a0 f_a) (S.ref_of (rs [ a1 ]))
          (P.add (loc b0 f_a) (S.ref_of (rs [ Sym.global ])) s.sigma);
    }
  in
  let s = S.retire_site s 0 in
  match P.find_opt (loc b0 f_a) s.sigma with
  | Some (S.Ref { refs; _ }) ->
      Alcotest.(check bool) "merged by union" true
        (Sym.Set.equal refs (rs [ a1; Sym.global ]))
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
      sigma = P.add (loc a0 f_a) S.null_v P.empty;
    }
  in
  let s2 = empty_state ~locals:1 in
  let m = S.merge ~gen:(gen ()) s1 s2 in
  match P.find_opt (loc a0 f_a) m.sigma with
  | Some (S.Ref { refs; _ }) ->
      Alcotest.(check bool) "kept as definitely null" true
        (Sym.Set.is_empty refs)
  | _ -> Alcotest.fail "expected entry"

let test_merge_nos_survives_via_sigma_null () =
  (* side 1 carries the fact, side 2's σ shows the field null: the fact
     survives the merge (the §4.3 disjunction) *)
  let fact = loc a0 f_a in
  let v1 = S.Ref (S.mk_refinfo ~nos:(S.Nos.singleton fact) (rs [ Sym.global ])) in
  let v2 = S.Ref (S.mk_refinfo (rs [ Sym.global ])) in
  let s1 = S.set_local (empty_state ~locals:1) 0 v1 in
  let s2 = S.set_local (empty_state ~locals:1) 0 v2 in
  let s2 = { s2 with sigma = P.add fact S.null_v s2.sigma } in
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
  let fact = loc a0 f_a in
  let other = loc a0 f_b in
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

(* Set and map iteration order feeds symbol recycling, stride discovery,
   explanations and the analysis golden, so symbol codes, field ids and
   location keys must order exactly like the variants and string pairs
   they replaced. *)
let sign n = Int.compare n 0

(* every kind of symbol, up to the edges of its code range *)
let wide_view =
  let open QCheck2.Gen in
  let max_arg = Jir.Program.max_params - 1 in
  oneof
    [
      return Sym.Global;
      map (fun i -> Sym.Arg i)
        (oneof [ int_range 0 6; int_range (max_arg - 3) max_arg ]);
      map2
        (fun site recent -> Sym.Alloc { site; recent })
        (oneof [ int_range 0 40; return (Jir.Program.max_code_length - 1) ])
        bool;
    ]

let code r = (r : Sym.t :> int)

let prop_refsym_code_order =
  QCheck2.Test.make ~name:"symbol codes order like their views" ~count:2000
    (QCheck2.Gen.pair wide_view wide_view) (fun (a, b) ->
      let ca = Sym.of_view a and cb = Sym.of_view b in
      sign (Int.compare (code ca) (code cb)) = sign (Stdlib.compare a b)
      && Sym.view ca = a)

let prop_field_id_order =
  QCheck2.Test.make ~name:"a class table numbers fields in (class, name) order"
    ~count:500 Gen.class_table (fun p ->
      let linked = Jir.Program.of_program p in
      let fields =
        List.concat_map
          (fun c -> List.map (fun fd -> (c.cname, fd.fd_name)) c.fields)
          p.classes
      in
      let id (c, f) = (F.of_field_ref linked { fclass = c; fname = f } :> int) in
      List.sort Int.compare (List.map id fields)
      = List.init (List.length fields) (fun i -> i + 1)
      && List.for_all
           (fun a ->
             List.for_all
               (fun b ->
                 sign (Int.compare (id a) (id b)) = sign (Stdlib.compare a b))
               fields)
           fields)

(* field ids at and around the field bits' edges *)
let wide_field =
  let open QCheck2.Gen in
  map F.of_code
    (oneof
       [
         int_range 0 4;
         int_range
           (Jir.Program.max_instance_fields - 2)
           Jir.Program.max_instance_fields;
       ])

let prop_loc_order =
  QCheck2.Test.make ~name:"location keys order like (symbol, field) pairs"
    ~count:2000
    QCheck2.Gen.(pair (pair wide_view wide_field) (pair wide_view wide_field))
    (fun ((va, fa), (vb, fb)) ->
      let ka = loc (Sym.of_view va) fa and kb = loc (Sym.of_view vb) fb in
      ka >= 0
      && sign (Int.compare ka kb)
         = sign (Stdlib.compare (va, (fa :> int)) (vb, (fb :> int)))
      && Sym.view (S.Loc.sym ka) = va
      && F.equal (S.Loc.field ka) fa)

(* abstract values with every kind of fact: null-or-same locations, a
   must-source and an element provenance at any index, ⊤ included *)
let aval : S.aval QCheck2.Gen.t =
  let open QCheck2.Gen in
  let src = S.Mstatic ("C", "s") in
  let refinfo =
    let* refs = Gen.refset in
    let* nos =
      map S.Nos.of_list
        (list_size (int_range 0 3)
           (map2 loc Gen.refsym (oneofl [ F.elems; f_a; f_b ])))
    in
    let* msrc = opt (return src) in
    let+ eprov = map (fun i -> Option.bind i (S.loaded src)) (opt Gen.intval) in
    S.mk_refinfo ?msrc ?eprov ~nos refs
  in
  frequency
    [
      (1, return S.Bot);
      (1, return S.Clash);
      (3, map (fun i -> S.Int i) Gen.intval);
      (6, map (fun ri -> S.Ref ri) refinfo);
    ]

let prop_merge_aval_self =
  QCheck2.Test.make ~name:"merging a value with itself returns it" ~count:1000
    aval (fun v ->
      let g = gen () in
      let s = empty_state ~locals:1 in
      S.merge_aval (I.Ctx.create g) s s v v == v
      (* and no variable unknown was invented *)
      && I.Gen.fresh_var g = I.Gen.fresh_var (gen ()))

let test_top_provenance_unconstructible () =
  Alcotest.(check bool) "no provenance at a ⊤ index" true
    (Option.is_none (S.loaded (S.Mstatic ("C", "s")) I.top))

(* a class with [n] reference fields, or a method with [n] parameters *)
let wide_class ~fields ~params =
  {
    classes =
      [
        {
          cname = "W";
          fields =
            List.init fields (fun i -> { fd_name = Printf.sprintf "f%05d" i; fd_ty = R });
          statics = [];
          methods =
            [
              {
                mname = "m";
                params = List.init params (fun _ -> I);
                ret = None;
                is_constructor = false;
                max_locals = params;
                code = [| Return |];
                handlers = [];
                labels = [];
              };
            ];
        };
      ];
  }

let links p =
  match Jir.Program.of_program p with
  | _ -> true
  | exception Jir.Program.Link_error _ -> false

let test_location_bounds () =
  let max_f = Jir.Program.max_instance_fields in
  let max_p = Jir.Program.max_params in
  let at_bound = Jir.Program.of_program (wide_class ~fields:max_f ~params:max_p) in
  Alcotest.(check int) "the last field fits" max_f
    (F.of_field_ref at_bound
       { fclass = "W"; fname = Printf.sprintf "f%05d" (max_f - 1) }
      :> int);
  Alcotest.(check bool) "one field past the bound is refused" false
    (links (wide_class ~fields:(max_f + 1) ~params:0));
  Alcotest.(check bool) "one parameter past the bound is refused" false
    (links (wide_class ~fields:0 ~params:(max_p + 1)))

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
    ("provenance index never top", test_top_provenance_unconstructible);
    ("location bounds at link", test_location_bounds);
  ]

let tests =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f) unit_tests
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_merge_commutative_refs;
        prop_merge_upper_bound;
        prop_escape_monotone;
        prop_refsym_code_order;
        prop_field_id_order;
        prop_loc_order;
        prop_merge_aval_self;
      ]
