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

(* One run under SATB marking with the given array-scan direction, a
   cycle due at every safepoint (trigger 0); the oracle's violation
   count.  The program never spawns, so a schedule is its safepoint
   cadence and marking budget. *)
let run_with ~direction ~gc_period ~steps ~chunk : int =
  let compiled = Lazy.force compiled in
  let policy site =
    {
      Jir.Types.keep with
      del_elide = (Satb_core.Driver.barrier compiled site).del_elide;
    }
  in
  let r =
    Jrt.Runner.run
      ~cfg:{ Jrt.Interp.default_config with policy }
      ~gc:
        (Jrt.Runner.Gc
           {
             policy = Jrt.Satb_gc.policy ~array_chunk:chunk ~direction ();
             steps_per_increment = steps;
             pacing = Jrt.Pacer.config_of_trigger 0;
           })
      ~gc_period compiled.program
      ~entry:{ Jir.Types.mclass = "Main"; mname = "main" }
  in
  match r.gc with Some g -> g.total_violations | None -> 0

(* schedule [seed]: (gc_period, steps per increment, array chunk) *)
let params seed = (1 + (seed * 13 mod 24), 1 + (seed mod 3), 1 + (seed mod 2))

let test_descending_always_sound () =
  for seed = 1 to 60 do
    let gc_period, steps, chunk = params seed in
    let v = run_with ~direction:Jrt.Marker.Descending ~gc_period ~steps ~chunk in
    if v > 0 then
      Alcotest.failf "descending scan violated at seed %d (%d misses)" seed v
  done

let test_ascending_breaks () =
  (* the wrong direction must lose snapshot objects on at least some
     schedules *)
  let broke = ref false in
  for seed = 1 to 60 do
    let gc_period, steps, chunk = params seed in
    if run_with ~direction:Jrt.Marker.Ascending ~gc_period ~steps ~chunk > 0
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
