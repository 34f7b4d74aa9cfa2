(* Empirical validation of the §4.3 scan-direction contract: move-down
   elision is sound iff the collector scans object arrays in the
   direction opposed to element movement.  Elements move DOWN in a delete
   loop, so the marker must scan DESCENDING: with descending scans no
   schedule produces a violation; with ascending scans a moved element
   can hop over the marker and vanish from the snapshot, which the oracle
   detects. *)

let src =
  {|
class T
  field ref f
  method void <init> (ref) locals 1 ctor
    return
  end
end
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
  method void main () locals 1
    iconst 48
    anewarray T
    putstatic Main.arr
    iconst 0
    istore 0
  fill:
    iload 0
    iconst 48
    if_icmpge work
    getstatic Main.arr
    iload 0
    new T
    dup
    invoke T.<init>
    aastore
    iinc 0 1
    goto fill
  work:
    iconst 40
    istore 0
  rounds:
    iload 0
    ifle fin
    invoke Main.delete
    iinc 0 -1
    goto rounds
  fin:
    return
  end
end
|}

let compiled =
  lazy
    (let prog = Jir.Parser.parse_linked src in
     let conf = { Satb_core.Analysis.default_config with move_down = true } in
     Satb_core.Driver.compile ~conf prog)

(* a hand-rolled scheduler loop so the scan direction is configurable *)
let run_with ~direction ~seed ~quantum ~gc_period ~steps ~chunk : int =
  let compiled = Lazy.force compiled in
  let policy site =
    {
      Jir.Types.keep with
      del_elide =
        (Satb_core.Driver.barrier compiled site).del_elide;
    }
  in
  let cfg = { Jrt.Interp.default_config with policy } in
  let m = Jrt.Interp.create ~cfg compiled.program in
  let _ =
    Jrt.Interp.spawn_thread m { Jir.Types.mclass = "Main"; mname = "main" } []
  in
  let gc =
    Jrt.Marker.create ~steps_per_increment:steps
      (Jrt.Satb_gc.policy ~array_chunk:chunk ~direction ())
      m.Jrt.Interp.heap
      ~roots:(Jrt.Marker.fixed_roots (fun () -> Jrt.Interp.roots m))
  in
  Jrt.Interp.set_collector m (Jrt.Marker.hooks gc);
  let violations = ref 0 in
  let since = ref 0 in
  let lcg = ref (if seed = 0 then 1 else seed) in
  let rand b =
    lcg := (!lcg * 1103515245) + 12345;
    1 + (((!lcg lsr 16) land 0x3FFF) mod b)
  in
  let continue_ = ref true in
  while !continue_ do
    let runnable =
      List.filter (fun th -> not th.Jrt.Interp.finished) m.Jrt.Interp.threads
    in
    if runnable = [] then continue_ := false
    else
      List.iter
        (fun th ->
          let q = if seed = 0 then quantum else rand quantum in
          let k = ref 0 in
          while !k < q && not th.Jrt.Interp.finished do
            ignore (Jrt.Interp.step m th);
            incr k;
            incr since;
            if !since >= gc_period then begin
              since := 0;
              Jrt.Marker.step gc;
              if
                (not (Jrt.Marker.is_marking gc))
                && m.Jrt.Interp.heap.Jrt.Heap.total_allocated > 8
              then Jrt.Marker.start_cycle gc;
              if Jrt.Marker.quiescent gc then
                violations :=
                  !violations + (Jrt.Marker.finish_cycle gc).violations
            end
          done)
        runnable
  done;
  if Jrt.Marker.is_marking gc then
    violations := !violations + (Jrt.Marker.finish_cycle gc).violations;
  !violations

let params seed =
  ( 1 + (seed * 7 mod 50),
    1 + (seed * 13 mod 24),
    1 + (seed mod 3),
    1 + (seed mod 2) )

let test_descending_always_sound () =
  for seed = 1 to 60 do
    let quantum, gc_period, steps, chunk = params seed in
    let v =
      run_with ~direction:Jrt.Marker.Descending ~seed ~quantum ~gc_period
        ~steps ~chunk
    in
    if v > 0 then
      Alcotest.failf "descending scan violated at seed %d (%d misses)" seed v
  done

let test_ascending_breaks () =
  (* the wrong direction must lose snapshot objects on at least some
     schedules — seed 7 and friends do it deterministically *)
  let broke = ref false in
  for seed = 1 to 60 do
    let quantum, gc_period, steps, chunk = params seed in
    if
      run_with ~direction:Jrt.Marker.Ascending ~seed ~quantum ~gc_period
        ~steps ~chunk
      > 0
    then broke := true
  done;
  Alcotest.(check bool)
    "ascending scan misses snapshot objects on some schedule" true !broke

let tests =
  [
    Alcotest.test_case "descending scan sound (60 schedules)" `Quick
      test_descending_always_sound;
    Alcotest.test_case "ascending scan unsound" `Quick test_ascending_breaks;
  ]
