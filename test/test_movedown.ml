(* Tests for the §4.3 move-down (delete-by-shift) extension. *)

let compile ?(move_down = true) src =
  let prog = Jir.Parser.parse_linked src in
  let conf = { Satb_core.Analysis.default_config with move_down } in
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
  method void <init> (ref) locals 1 ctor
    return
  end
end
|}

(* the canonical clear-then-shift delete loop over a global array *)
let shift_src =
  hdr
  ^ {|
class Main
  static ref arr
  method void delete () locals 1
    getstatic Main.arr
    iconst 0
    aconst_null
    aastore               ; clear-first: keeps its barrier, starts the chain
    iconst 0
    istore 0
  loop:
    iload 0
    getstatic Main.arr
    arraylength
    iconst 1
    isub
    if_icmpge fin
    getstatic Main.arr
    iload 0
    getstatic Main.arr
    iload 0
    iconst 1
    iadd
    aaload
    aastore               ; move-down copy
    iinc 0 1
    goto loop
  fin:
    return
  end
end
|}

let test_shift_loop_elided () =
  Alcotest.(check (list bool)) "clear kept, shift elided" [ false; true ]
    (flags (compile shift_src) ~meth:"delete")

let test_disabled_without_flag () =
  Alcotest.(check (list bool)) "all kept without the flag" [ false; false ]
    (flags (compile ~move_down:false shift_src) ~meth:"delete")

let test_multi_threaded_gate () =
  (* the same code in a program that spawns a thread: extension disabled *)
  let src =
    shift_src
    ^ {|
class Aux
  method void w () locals 0
    return
  end
  method void go () locals 0
    spawn Aux.w
    return
  end
end
|}
  in
  Alcotest.(check (list bool)) "gated off when multi-threaded"
    [ false; false ]
    (flags (compile src) ~meth:"delete")

let test_no_clear_no_chain () =
  (* shifting without the clearing store: the first overwrite (the
     deleted element) would be lost, so nothing elides *)
  let src =
    hdr
    ^ {|
class Main
  static ref arr
  method void delete () locals 1
    iconst 0
    istore 0
  loop:
    iload 0
    getstatic Main.arr
    arraylength
    iconst 1
    isub
    if_icmpge fin
    getstatic Main.arr
    iload 0
    getstatic Main.arr
    iload 0
    iconst 1
    iadd
    aaload
    aastore
    iinc 0 1
    goto loop
  fin:
    return
  end
end
|}
  in
  Alcotest.(check (list bool)) "no chain start" [ false ]
    (flags (compile src) ~meth:"delete")

let test_wrong_delta_breaks_chain () =
  (* copying from two slots above moves elements down by 2: a value can
     skip past the marker, so only delta 1 is accepted *)
  let src =
    hdr
    ^ {|
class Main
  static ref arr
  method void delete () locals 1
    getstatic Main.arr
    iconst 0
    aconst_null
    aastore
    iconst 0
    istore 0
  loop:
    iload 0
    getstatic Main.arr
    arraylength
    iconst 2
    isub
    if_icmpge fin
    getstatic Main.arr
    iload 0
    getstatic Main.arr
    iload 0
    iconst 2
    iadd
    aaload
    aastore
    iinc 0 1
    goto loop
  fin:
    return
  end
end
|}
  in
  Alcotest.(check (list bool)) "delta 2 kept" [ false; false ]
    (flags (compile src) ~meth:"delete")

let test_different_arrays_no_chain () =
  (* loading from one global array and storing into another is not a
     rearrangement: kept *)
  let src =
    hdr
    ^ {|
class Main
  static ref arr
  static ref other
  method void delete () locals 1
    getstatic Main.arr
    iconst 0
    aconst_null
    aastore
    iconst 0
    istore 0
  loop:
    iload 0
    getstatic Main.arr
    arraylength
    iconst 1
    isub
    if_icmpge fin
    getstatic Main.arr
    iload 0
    getstatic Main.other
    iload 0
    iconst 1
    iadd
    aaload
    aastore
    iinc 0 1
    goto loop
  fin:
    return
  end
end
|}
  in
  Alcotest.(check (list bool)) "cross-array copy kept" [ false; false ]
    (flags (compile src) ~meth:"delete")

let test_putstatic_kills_identity () =
  (* replacing the static between the clear and the shift severs the
     must-alias identity: kept *)
  let src =
    hdr
    ^ {|
class Main
  static ref arr
  method void delete () locals 1
    getstatic Main.arr
    iconst 0
    aconst_null
    aastore
    iconst 8
    anewarray T
    putstatic Main.arr
    iconst 0
    istore 0
  loop:
    iload 0
    getstatic Main.arr
    arraylength
    iconst 1
    isub
    if_icmpge fin
    getstatic Main.arr
    iload 0
    getstatic Main.arr
    iload 0
    iconst 1
    iadd
    aaload
    aastore
    iinc 0 1
    goto loop
  fin:
    return
  end
end
|}
  in
  match flags (compile src) ~meth:"delete" with
  | [ _clear; _putstatic_absent_or; shift_store ] ->
      (* verdicts: clear aastore, (putstatic is a separate site), shift *)
      Alcotest.(check bool) "shift kept" false shift_store
  | [ _; shift_store ] ->
      Alcotest.(check bool) "shift kept" false shift_store
  | other -> Alcotest.failf "unexpected verdict count %d" (List.length other)

let test_call_kills_chain () =
  (* a non-inlined call between clear and shift may write anything *)
  let big_pad = String.concat "\n" (List.init 120 (fun _ -> "    iinc 0 1")) in
  let src =
    hdr
    ^ Printf.sprintf
        {|
class Main
  static ref arr
  method void opaque () locals 1
    iconst 0
    istore 0
%s
    return
  end
  method void delete () locals 1
    getstatic Main.arr
    iconst 0
    aconst_null
    aastore
    invoke Main.opaque
    iconst 0
    istore 0
  loop:
    iload 0
    getstatic Main.arr
    arraylength
    iconst 1
    isub
    if_icmpge fin
    getstatic Main.arr
    iload 0
    getstatic Main.arr
    iload 0
    iconst 1
    iadd
    aaload
    aastore
    iinc 0 1
    goto loop
  fin:
    return
  end
end
|}
        big_pad
  in
  Alcotest.(check (list bool)) "chain killed by call" [ false; false ]
    (flags (compile src) ~meth:"delete")

let test_jbb_gains_and_stays_sound () =
  let r = Harness.Movedown.measure_one Workloads.Jbb.t in
  Alcotest.(check int) "no violations" 0 r.violations;
  Alcotest.(check bool) "array elimination appears" true
    (r.array_md_pct > 40.0 && r.array_base_pct < 0.5);
  Alcotest.(check bool) "total elimination grows" true
    (r.elim_md_pct > r.elim_base_pct +. 10.0)

let test_mtrt_unchanged_multithreaded () =
  let r = Harness.Movedown.measure_one Workloads.Mtrt.t in
  Alcotest.(check int) "no violations" 0 r.violations;
  Alcotest.(check bool) "multi-threaded program unchanged" true
    (Float.abs (r.elim_md_pct -. r.elim_base_pct) < 0.01)

(* property: move-down elision stays sound under adversarial schedules
   and small marker chunks (forcing mid-array interleavings) *)
let prop_movedown_sound =
  QCheck2.Test.make ~name:"move-down sound under adversarial schedules"
    ~count:15
    (QCheck2.Gen.int_range 1 10_000)
    (fun seed ->
      let cw = Harness.Exp.compile ~move_down:true Workloads.Jbb.t in
      let quantum = 1 + (seed * 7 mod 97) in
      let gc_period = 1 + (seed * 13 mod 31) in
      let steps = 1 + (seed mod 4) in
      let r =
        Harness.Exp.run
          ~gc:
            (Jrt.Runner.make_satb ~steps_per_increment:steps
               ~pacing:(Jrt.Pacer.config_of_trigger 8) ())
          ~seed ~quantum ~gc_period cw
      in
      match r.gc with Some g -> g.total_violations = 0 | None -> false)

let tests =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("shift loop elided", test_shift_loop_elided);
      ("disabled without flag", test_disabled_without_flag);
      ("multi-threaded gate", test_multi_threaded_gate);
      ("no clear, no chain", test_no_clear_no_chain);
      ("wrong delta kept", test_wrong_delta_breaks_chain);
      ("different arrays kept", test_different_arrays_no_chain);
      ("putstatic kills identity", test_putstatic_kills_identity);
      ("call kills chain", test_call_kills_chain);
      ("jbb gains, stays sound", test_jbb_gains_and_stays_sound);
      ("mtrt gated unchanged", test_mtrt_unchanged_multithreaded);
    ]
  @ [ QCheck_alcotest.to_alcotest prop_movedown_sound ]
