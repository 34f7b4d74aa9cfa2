(* Interprocedural summary engine (Summary + Callgraph): unit checks of
   the summary domain on hand-written methods, caller-side integration —
   elisions that the blanket Invoke havoc loses must survive at inline
   limit 0 — and differential fuzzing: the summary transfer refines havoc
   pointwise, so its elided-site set is a superset, and both policies
   must preserve the SATB snapshot invariant. *)

open Jir.Types
module S = Satb_core.Summary

let parse = Jir.Parser.parse_linked

let src_lib =
  {|
class T
  field ref f
  field int i
  static ref sink
  method void <init> (ref) locals 1 ctor
    return
  end
  method void seti (ref int) locals 2
    aload 0
    iload 1
    putfield T.i
    return
  end
  method void setf (ref ref) locals 2
    aload 0
    aload 1
    putfield T.f
    return
  end
  method ref getf (ref) locals 1
    aload 0
    getfield T.f
    areturn
  end
  method void leak (ref) locals 1
    aload 0
    putstatic T.sink
    return
  end
  method ref mk () locals 0
    new T
    dup
    invoke T.<init>
    areturn
  end
  method int count (int) locals 1
    iload 0
    iconst 0
    if_icmpgt rec
    iconst 0
    ireturn
  rec:
    iload 0
    iconst 1
    isub
    invoke T.count
    iconst 1
    iadd
    ireturn
  end
  method void ping (int) locals 1
    iload 0
    iconst 0
    if_icmple fin
    iload 0
    iconst 1
    isub
    invoke T.pong
  fin:
    return
  end
  method void pong (int) locals 1
    iload 0
    invoke T.ping
    return
  end
end
class Main
  method void main () locals 0
    return
  end
end
|}

let tbl_of ?fixpoint_bound src =
  S.of_program ?fixpoint_bound (parse src)

let find tbl c m =
  match S.find tbl { mclass = c; mname = m } with
  | Some s -> s
  | None -> Alcotest.failf "no summary for %s.%s" c m

let test_int_write_must () =
  (* seti writes T.i of its receiver on every path: an integer w_must
     write, nothing escapes *)
  let s = find (tbl_of src_lib) "T" "seti" in
  Alcotest.(check bool) "receiver does not escape" false
    s.S.s_params.(0).ps_escapes;
  Alcotest.(check bool) "no unknown writes" false
    s.S.s_params.(0).ps_writes_top;
  match S.Fmap.find_opt (Satb_core.Field_id.F ("T", "i")) s.S.s_params.(0).ps_writes with
  | Some w ->
      Alcotest.(check bool) "integer write" true w.S.w_int;
      Alcotest.(check bool) "definite on return" true w.S.w_must
  | None -> Alcotest.fail "T.i write not recorded"

let test_ref_write_recorded () =
  (* setf stores param 1 into param 0's field f: the write's value shape
     names param 1, and neither argument escapes to another thread *)
  let s = find (tbl_of src_lib) "T" "setf" in
  Alcotest.(check bool) "receiver does not escape" false
    s.S.s_params.(0).ps_escapes;
  Alcotest.(check bool) "stored value does not escape" false
    s.S.s_params.(1).ps_escapes;
  match S.Fmap.find_opt (Satb_core.Field_id.F ("T", "f")) s.S.s_params.(0).ps_writes with
  | Some w ->
      Alcotest.(check bool) "value may be param 1" true
        (S.Iset.mem 1 w.S.w_val.vs_params);
      Alcotest.(check bool) "value is not global" false w.S.w_val.vs_global
  | None -> Alcotest.fail "T.f write not recorded"

let test_getter_pure () =
  let s = find (tbl_of src_lib) "T" "getf" in
  Alcotest.(check bool) "getter is pure" true (S.pure s);
  match s.S.s_ret with
  | S.Ret_shape _ -> ()
  | _ -> Alcotest.fail "expected a shaped return"

let test_leak_escapes () =
  let s = find (tbl_of src_lib) "T" "leak" in
  Alcotest.(check bool) "argument escapes" true s.S.s_params.(0).ps_escapes;
  match s.S.s_statics with
  | S.Sw_set [ fr ] ->
      Alcotest.(check string) "static class" "T" fr.fclass;
      Alcotest.(check string) "static field" "sink" fr.fname
  | _ -> Alcotest.fail "expected exactly T.sink written"

let test_factory_fresh () =
  let s = find (tbl_of src_lib) "T" "mk" in
  Alcotest.(check bool) "allocates" true s.S.s_allocates;
  match s.S.s_ret with
  | S.Ret_fresh (cn, _) -> Alcotest.(check string) "fresh class" "T" cn
  | _ -> Alcotest.fail "expected a fresh return"

let test_recursion_converges () =
  (* count is self-recursive but effect-free: the SCC fixpoint must
     converge to a pure summary, not widen to havoc *)
  let tbl = tbl_of src_lib in
  Alcotest.(check int) "nothing havoced" 0 (S.n_havoced tbl);
  let s = find tbl "T" "count" in
  Alcotest.(check bool) "recursive method pure" true (S.pure s);
  let s = find tbl "T" "ping" in
  Alcotest.(check bool) "mutually recursive method pure" true (S.pure s)

let test_fixpoint_bound_widens () =
  (* bound 0: recursive components cannot converge and widen to havoc;
     non-recursive methods are unaffected *)
  let tbl = tbl_of ~fixpoint_bound:0 src_lib in
  Alcotest.(check bool) "recursive members havoced" true (S.n_havoced tbl >= 3);
  let s = find tbl "T" "count" in
  Alcotest.(check bool) "count degraded" false (S.pure s);
  let s = find tbl "T" "getf" in
  Alcotest.(check bool) "getf still precise" true (S.pure s)

(* ---- caller-side integration at inline limit 0 ------------------------ *)

let compile ~summaries src =
  Satb_core.Driver.compile ~inline_limit:0
    ~conf:{ Satb_core.Analysis.default_config with summaries }
    (parse src)

let elided_sites (c : Satb_core.Driver.compiled) =
  List.concat_map
    (fun (r : Satb_core.Analysis.method_result) ->
      List.filter_map
        (fun (v : Satb_core.Analysis.verdict) ->
          if v.v_elide then Some (r.mr_class, r.mr_method, v.v_pc) else None)
        r.verdicts)
    c.results

let src_caller body =
  {|
class T
  field ref f
  field int i
  static ref sink
  method void <init> (ref) locals 1 ctor
    return
  end
  method void seti (ref int) locals 2
    aload 0
    iload 1
    putfield T.i
    return
  end
  method void leak (ref) locals 1
    aload 0
    putstatic T.sink
    return
  end
  method ref mk () locals 0
    new T
    dup
    invoke T.<init>
    areturn
  end
end
class Main
  method void main () locals 1
|}
  ^ body ^ {|
    return
  end
end
|}

let test_benign_callee_keeps_prenull () =
  (* new T; seti(t, 7); t.f <- t : the integer-writing callee must not
     destroy thread-locality or the definite nullness of T.f *)
  let body =
    {|
    new T
    dup
    invoke T.<init>
    astore 0
    aload 0
    iconst 7
    invoke T.seti
    aload 0
    aload 0
    putfield T.f
|}
  in
  let off = compile ~summaries:false (src_caller body) in
  let on = compile ~summaries:true (src_caller body) in
  Alcotest.(check int) "havoc loses the elision" 0
    (List.length (elided_sites off));
  Alcotest.(check int) "summary keeps the elision" 1
    (List.length (elided_sites on))

let test_escaping_callee_blocks_elision () =
  (* leak(t) publishes t through a static: the store must keep its
     barrier even with summaries on *)
  let body =
    {|
    new T
    dup
    invoke T.<init>
    astore 0
    aload 0
    invoke T.leak
    aload 0
    aload 0
    putfield T.f
|}
  in
  let on = compile ~summaries:true (src_caller body) in
  Alcotest.(check int) "escaped receiver keeps barrier" 0
    (List.length (elided_sites on))

let test_fresh_return_elides () =
  (* t = mk(): the returned object is fresh and unescaped, so t.f is
     definitely null at the store *)
  let body =
    {|
    invoke T.mk
    astore 0
    aload 0
    aload 0
    putfield T.f
|}
  in
  let off = compile ~summaries:false (src_caller body) in
  let on = compile ~summaries:true (src_caller body) in
  Alcotest.(check int) "havoc: global return" 0 (List.length (elided_sites off));
  Alcotest.(check int) "summary: fresh return" 1
    (List.length (elided_sites on))

let test_summary_elision_guarded_closed_world () =
  (* every elision downstream of a consulted summary carries the
     closed-world guard, so a later class load can revoke it *)
  let body =
    {|
    invoke T.mk
    astore 0
    aload 0
    aload 0
    putfield T.f
|}
  in
  let on = compile ~summaries:true (src_caller body) in
  match elided_sites on with
  | [ (c, m, pc) ] ->
      let assumptions =
        (Satb_core.Driver.barrier on { s_class = c; s_method = m; s_pc = pc })
          .del_guards
      in
      Alcotest.(check bool) "closed-world guard attached" true
        (List.mem Jir.Types.Closed_world assumptions)
  | sites -> Alcotest.failf "expected one elided site, got %d" (List.length sites)

(* ---- differential fuzz ------------------------------------------------ *)

let compile_gen ~summaries prog =
  Satb_core.Driver.compile ~inline_limit:0
    ~conf:{ Satb_core.Analysis.default_config with summaries }
    prog

(* With summaries the analysis may only gain elisions: the summary
   transfer refines the havoc transfer pointwise. *)
let prop_summaries_superset =
  QCheck2.Test.make ~name:"summary elisions are a superset of havoc's"
    ~count:150 Gen.gen_program (fun p ->
      let prog = Jir.Program.of_program p in
      let off = compile_gen ~summaries:false prog in
      let on = compile_gen ~summaries:true prog in
      List.for_all
        (fun site -> List.mem site (elided_sites on))
        (elided_sites off))

(* Both policies must preserve the SATB snapshot invariant under a
   seed/pacing sweep. *)
let prop_summaries_sound =
  QCheck2.Test.make ~name:"SATB invariant with summary elisions" ~count:100
    (QCheck2.Gen.pair Gen.gen_program (QCheck2.Gen.int_range 1 1000))
    (fun (p, seed) ->
      let prog = Jir.Program.of_program p in
      List.for_all
        (fun summaries ->
          let compiled = compile_gen ~summaries prog in
          let policy site =
            {
              Jir.Types.keep with
              del_elide =
                (Satb_core.Driver.barrier compiled site).del_elide;
            }
          in
          let cfg = { Jrt.Interp.default_config with policy } in
          let r =
            Jrt.Runner.run ~cfg
              ~gc:
                (Jrt.Runner.Satb
                   { steps_per_increment = 1 + (seed mod 8); pacing = Jrt.Pacer.config_of_trigger 2 })
              ~seed
              ~quantum:(1 + (seed mod 30))
              ~gc_period:(1 + (seed mod 10))
              compiled.program
              ~entry:{ Jir.Types.mclass = "Main"; mname = "m" }
          in
          match r.gc with Some g -> g.total_violations = 0 | None -> false)
        [ false; true ])

let tests =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("int write is definite", test_int_write_must);
      ("ref write names the value", test_ref_write_recorded);
      ("getter pure", test_getter_pure);
      ("leak escapes via static", test_leak_escapes);
      ("factory returns fresh", test_factory_fresh);
      ("recursion converges", test_recursion_converges);
      ("fixpoint bound widens to havoc", test_fixpoint_bound_widens);
      ("benign callee keeps pre-null", test_benign_callee_keeps_prenull);
      ("escaping callee blocks elision", test_escaping_callee_blocks_elision);
      ("fresh return elides", test_fresh_return_elides);
      ("summary elision carries closed-world", test_summary_elision_guarded_closed_world);
    ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_summaries_superset; prop_summaries_sound ]
