(* Tests for the null-or-same extension (paper §4.3, here implemented). *)

let compile ?(null_or_same = true) src =
  let prog = Jir.Parser.parse_linked src in
  let conf =
    { Satb_core.Analysis.default_config with null_or_same }
  in
  Satb_core.Driver.compile ~inline_limit:100 ~conf prog

let flags compiled ~meth =
  List.concat_map
    (fun (r : Satb_core.Analysis.method_result) ->
      if String.equal r.mr_method meth then
        List.map (fun (v : Satb_core.Analysis.verdict) -> v.v_elide) r.verdicts
      else [])
    compiled.Satb_core.Driver.results

let hdr =
  {|
class T
  field ref f
  field ref g
  method void <init> (ref) locals 1 ctor
    return
  end
end
|}

(* the memoization idiom: t = o.f; if (t == null) t = fallback; o.f = t *)
let memo_src =
  hdr
  ^ {|
class Main
  static ref seed
  method void m () locals 3
    new T
    dup
    invoke T.<init>
    astore 0
    aload 0
    getstatic Main.seed
    putfield T.f
    aload 0
    getfield T.f
    astore 1
    aload 1
    ifnonnull store
    getstatic Main.seed
    astore 1
  store:
    aload 0
    aload 1
    putfield T.f
    return
  end
end
|}

let test_memo_idiom_elided_with_flag () =
  (* first store: pre-null init; final store: null-or-same *)
  Alcotest.(check (list bool)) "with extension" [ true; true ]
    (flags (compile memo_src) ~meth:"m")

let test_memo_idiom_kept_without_flag () =
  Alcotest.(check (list bool)) "without extension" [ true; false ]
    (flags (compile ~null_or_same:false memo_src) ~meth:"m")

let test_write_back_same_value () =
  (* plain o.f = o.f rewrite, no branch *)
  let src =
    hdr
    ^ {|
class Main
  static ref seed
  method void m () locals 1
    new T
    dup
    invoke T.<init>
    astore 0
    aload 0
    getstatic Main.seed
    putfield T.f
    aload 0
    aload 0
    getfield T.f
    putfield T.f
    return
  end
end
|}
  in
  Alcotest.(check (list bool)) "write-back elided" [ true; true ]
    (flags (compile src) ~meth:"m")

let test_fact_killed_by_intervening_store () =
  (* o.f is overwritten between the load and the write-back: the loaded
     value no longer matches the content, the barrier stays *)
  let src =
    hdr
    ^ {|
class Main
  static ref seed
  method void m () locals 2
    new T
    dup
    invoke T.<init>
    astore 0
    aload 0
    getstatic Main.seed
    putfield T.f
    aload 0
    getfield T.f
    astore 1
    aload 0
    getstatic Main.seed
    putfield T.f
    aload 0
    aload 1
    putfield T.f
    return
  end
end
|}
  in
  Alcotest.(check (list bool)) "stale fact dies" [ true; false; false ]
    (flags (compile src) ~meth:"m")

let test_fact_scoped_to_field () =
  (* value loaded from f and written to g: not same-field, kept *)
  let src =
    hdr
    ^ {|
class Main
  static ref seed
  method void m () locals 2
    new T
    dup
    invoke T.<init>
    astore 0
    aload 0
    getstatic Main.seed
    putfield T.f
    aload 0
    getstatic Main.seed
    putfield T.g
    aload 0
    aload 0
    getfield T.f
    putfield T.g
    return
  end
end
|}
  in
  Alcotest.(check (list bool)) "wrong field kept" [ true; true; false ]
    (flags (compile src) ~meth:"m")

let test_escaped_receiver_not_elided () =
  (* §4.3: unsynchronized multi-mutator writes invalidate the reasoning,
     so it only applies to thread-local receivers *)
  let src =
    hdr
    ^ {|
class Main
  static ref seed
  static ref sink
  method void m () locals 2
    new T
    dup
    invoke T.<init>
    astore 0
    aload 0
    putstatic Main.sink
    aload 0
    aload 0
    getfield T.f
    putfield T.f
    return
  end
end
|}
  in
  Alcotest.(check (list bool)) "escaped receiver kept" [ false; false ]
    (flags (compile src) ~meth:"m")

let test_soundness_under_satb () =
  (* run the memoization workload sites under SATB with elision: no
     snapshot violations *)
  List.iter
    (fun (w : Workloads.Spec.t) ->
      let cw = Harness.Exp.compile ~null_or_same:true w in
      let r =
        Harness.Exp.run
          ~gc:(Jrt.Runner.make_satb ~pacing:(Jrt.Pacer.config_of_trigger 24)
            ~steps_per_increment:8 ())
          cw
      in
      match r.gc with
      | Some g ->
          Alcotest.(check int) (w.name ^ " violations") 0 g.total_violations
      | None -> Alcotest.fail "expected gc summary")
    Workloads.Registry.table1

let tests =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("memo idiom elided", test_memo_idiom_elided_with_flag);
      ("memo idiom kept without flag", test_memo_idiom_kept_without_flag);
      ("write-back same value", test_write_back_same_value);
      ("intervening store kills fact", test_fact_killed_by_intervening_store);
      ("fact scoped to field", test_fact_scoped_to_field);
      ("escaped receiver kept", test_escaped_receiver_not_elided);
      ("sound under SATB", test_soundness_under_satb);
    ]
