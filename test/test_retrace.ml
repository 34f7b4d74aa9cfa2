(* Tests for the §4.3 pairwise-swap extension and the retrace collector's
   tracing-state protocol that makes it sound. *)

let compile ?(swap = true) src =
  let prog = Jir.Parser.parse_linked src in
  let conf = { Satb_core.Analysis.default_config with swap } in
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

(* the canonical pairwise swap over a global array:
   a = arr[j]; b = arr[j+1]; arr[j] = b; arr[j+1] = a *)
let swap_src =
  hdr
  ^ {|
class Main
  static ref arr
  method void swap (int) locals 3
    getstatic Main.arr
    iload 0
    aaload
    astore 1            ; a = arr[j]
    getstatic Main.arr
    iload 0
    iconst 1
    iadd
    aaload
    astore 2            ; b = arr[j+1]
    getstatic Main.arr
    iload 0
    aload 2
    aastore             ; arr[j] = b   (first store of the pair)
    getstatic Main.arr
    iload 0
    iconst 1
    iadd
    aload 1
    aastore             ; arr[j+1] = a (second store)
    return
  end
end
|}

let test_swap_pair_elided () =
  Alcotest.(check (list bool)) "both swap stores elided" [ true; true ]
    (flags (compile swap_src) ~meth:"swap")

let test_disabled_without_flag () =
  Alcotest.(check (list bool)) "all kept without the flag" [ false; false ]
    (flags (compile ~swap:false swap_src) ~meth:"swap")

let test_multi_threaded_gate () =
  (* the same code in a program that spawns a thread: extension disabled *)
  let src =
    swap_src
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
    (flags (compile src) ~meth:"swap")

let test_retrace_check_sites () =
  (* the runtime must see the pair as an open/close tracing-check window *)
  let compiled = compile swap_src in
  let pcs reason =
    List.concat_map
      (fun (r : Satb_core.Analysis.method_result) ->
        List.filter_map
          (fun (v : Satb_core.Analysis.verdict) ->
            if v.v_reason = reason then Some v.v_pc else None)
          r.verdicts)
      compiled.Satb_core.Driver.results
  in
  match (pcs Satb_core.Analysis.Swap_first, pcs Satb_core.Analysis.Swap_second)
  with
  | [ first ], [ second ] ->
      let check pc =
        (Satb_core.Driver.barrier compiled
           { s_class = "Main"; s_method = "swap"; s_pc = pc })
          .check
      in
      Alcotest.(check bool) "first store opens" true
        (check first = Jir.Types.Check_open);
      Alcotest.(check bool) "second store closes" true
        (check second = Jir.Types.Check_close);
      Alcotest.(check bool) "other sites unchecked" true
        (check 0 = Jir.Types.No_check)
  | f, s ->
      Alcotest.failf "expected one swap pair, got %d first / %d second"
        (List.length f) (List.length s)

let test_wrong_slot_kept () =
  (* storing the displaced element two slots up is not a swap: the value
     from arr[j] never returns to a scanned slot's mirror position *)
  let src =
    hdr
    ^ {|
class Main
  static ref arr
  method void swap (int) locals 3
    getstatic Main.arr
    iload 0
    aaload
    astore 1
    getstatic Main.arr
    iload 0
    iconst 1
    iadd
    aaload
    astore 2
    getstatic Main.arr
    iload 0
    aload 2
    aastore
    getstatic Main.arr
    iload 0
    iconst 2
    iadd
    aload 1
    aastore             ; arr[j+2] = a: not the displaced slot's partner
    return
  end
end
|}
  in
  Alcotest.(check (list bool)) "mismatched second slot kept" [ false; false ]
    (flags (compile src) ~meth:"swap")

let test_different_arrays_kept () =
  (* the "swapped" value comes from a different global array *)
  let src =
    hdr
    ^ {|
class Main
  static ref arr
  static ref other
  method void swap (int) locals 3
    getstatic Main.arr
    iload 0
    aaload
    astore 1
    getstatic Main.other
    iload 0
    iconst 1
    iadd
    aaload
    astore 2
    getstatic Main.arr
    iload 0
    aload 2
    aastore
    getstatic Main.arr
    iload 0
    iconst 1
    iadd
    aload 1
    aastore
    return
  end
end
|}
  in
  Alcotest.(check (list bool)) "cross-array value kept" [ false; false ]
    (flags (compile src) ~meth:"swap")

let test_unwhitelisted_instr_kills_window () =
  (* an arraylength between the pair's stores could (in general code)
     hide collector work the safepoint-free window must exclude, so the
     pending swap is dropped and both stores keep their barriers *)
  let src =
    hdr
    ^ {|
class Main
  static ref arr
  method void swap (int) locals 3
    getstatic Main.arr
    iload 0
    aaload
    astore 1
    getstatic Main.arr
    iload 0
    iconst 1
    iadd
    aaload
    astore 2
    getstatic Main.arr
    iload 0
    aload 2
    aastore
    getstatic Main.arr
    arraylength
    istore 0
    getstatic Main.arr
    iload 0
    aload 1
    aastore
    return
  end
end
|}
  in
  Alcotest.(check (list bool)) "window torn by non-whitelisted instr"
    [ false; false ]
    (flags (compile src) ~meth:"swap")

let test_db_gains_and_stays_sound () =
  let r = Harness.Retrace.measure_one Workloads.Db.t in
  Alcotest.(check int) "no violations" 0 r.violations;
  Alcotest.(check bool) "array elimination appears" true
    (r.array_swap_pct > 40.0 && r.array_base_pct < 0.5);
  Alcotest.(check bool) "total elimination grows" true
    (r.elim_swap_pct > r.elim_base_pct +. 10.0);
  Alcotest.(check bool) "tracing checks executed" true (r.checks > 0)

(* db is single-threaded, so the adversarial knob is the collector
   pacing (mutator instructions per increment): sweeping it moves the
   concurrent index-array scan across every alignment with the sort's
   swap windows. *)
let sweep_db ~gc_periods ~gc =
  let cw = Harness.Exp.compile ~move_down:true ~swap:true Workloads.Db.t in
  List.fold_left
    (fun (v, rt) p ->
      let r = Harness.Exp.run ~gc ~gc_period:p cw in
      match r.gc with
      | Some g ->
          (v + g.total_violations, rt + List.fold_left ( + ) 0 g.retraced)
      | None -> (v, rt))
    (0, 0) gc_periods

let periods = List.init 120 (fun i -> i + 1) @ List.init 30 (fun i -> 96 + (i * 4))

let test_unsound_under_plain_satb () =
  (* the same elision under a collector without the tracing-state
     protocol: the oracle must catch the lost displaced element for at
     least one pacing *)
  let violations, _ =
    sweep_db ~gc_periods:periods
      ~gc:
        (Jrt.Runner.make_satb ~steps_per_increment:1
           ~pacing:(Jrt.Pacer.config_of_trigger 8) ())
  in
  Alcotest.(check bool) "oracle catches swap elision under plain SATB" true
    (violations > 0)

let test_sound_and_retracing_under_retrace () =
  let violations, retraces =
    sweep_db ~gc_periods:periods
      ~gc:
        (Jrt.Runner.make_retrace ~steps_per_increment:1
           ~pacing:(Jrt.Pacer.config_of_trigger 8) ())
  in
  Alcotest.(check int) "no violations across the pacing sweep" 0 violations;
  Alcotest.(check bool) "forced re-scans observed" true (retraces > 0)

(* property: swap elision stays sound under the retrace collector for
   adversarial pacings and schedules *)
let prop_swap_sound_under_retrace =
  QCheck2.Test.make ~name:"swap elision sound under retrace collector"
    ~count:15
    (QCheck2.Gen.int_range 1 10_000)
    (fun seed ->
      let cw = Harness.Exp.compile ~move_down:true ~swap:true Workloads.Db.t in
      let quantum = 1 + (seed * 7 mod 97) in
      let gc_period = 1 + (seed * 13 mod 401) in
      let steps = 1 + (seed mod 4) in
      let r =
        Harness.Exp.run
          ~gc:
            (Jrt.Runner.make_retrace ~steps_per_increment:steps
               ~pacing:(Jrt.Pacer.config_of_trigger 8) ())
          ~seed ~quantum ~gc_period cw
      in
      match r.gc with Some g -> g.total_violations = 0 | None -> false)

let tests =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("swap pair elided", test_swap_pair_elided);
      ("disabled without flag", test_disabled_without_flag);
      ("multi-threaded gate", test_multi_threaded_gate);
      ("retrace check sites", test_retrace_check_sites);
      ("wrong second slot kept", test_wrong_slot_kept);
      ("different arrays kept", test_different_arrays_kept);
      ("non-whitelisted instr kills window", test_unwhitelisted_instr_kills_window);
      ("db gains, stays sound", test_db_gains_and_stays_sound);
      ("unsound under plain satb", test_unsound_under_plain_satb);
      ("sound and retracing under retrace", test_sound_and_retracing_under_retrace);
    ]
  @ [ QCheck_alcotest.to_alcotest prop_swap_sound_under_retrace ]
