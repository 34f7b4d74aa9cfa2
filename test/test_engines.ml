(* Differential fuzz of the direct-threaded engine ({!Jrt.Exec})
   against the tree-walking interpreter.  Same compiled workload, same
   collector, same chaos plan — the two final states must be identical
   in every dimension {!Harness.Engines.diff} checks: steps, cost and
   barrier units, every machine counter, per-site attribution, statics,
   the full heap graph, GC summary, pacer stats and thread errors.

   The matrix deliberately includes mid-run revocation (late spawn,
   class load) and the deliberately-unsound barrier skip: guard
   failures, elision rollback, snapshot repair and oracle violations
   must all land identically on both engines. *)

let compile_full w =
  Harness.Exp.compile ~null_or_same:true ~move_down:true ~swap:true
    ~summaries:true w

let collectors =
  [
    ( "satb",
      Jrt.Runner.make_satb ~pacing:(Jrt.Pacer.config_of_trigger 24)
        ~steps_per_increment:8 () );
    ( "incr",
      Jrt.Runner.make_incr ~pacing:(Jrt.Pacer.config_of_trigger 24)
        ~steps_per_increment:8 () );
    ( "retrace",
      Jrt.Runner.make_retrace ~pacing:(Jrt.Pacer.config_of_trigger 24)
        ~steps_per_increment:8 () );
    ( "hybrid",
      Jrt.Runner.make_hybrid ~pacing:(Jrt.Pacer.config_of_trigger 24)
        ~steps_per_increment:8 () );
  ]

(* chaos plans are stateful; build a fresh one per run so both engines
   see the same fault schedule from the same initial state *)
let plans : (string * (unit -> Jrt.Chaos.t option)) list =
  ("none", fun () -> None)
  :: (List.map
        (fun seed ->
          ( Printf.sprintf "seed-%d" seed,
            fun () -> Some (Jrt.Chaos.create (Jrt.Chaos.of_seed seed)) ))
        [ 42; 7; 101 ]
     @ List.map
         (fun (name, faults) ->
           ( name,
             fun () ->
               Some
                 (Jrt.Chaos.create
                    { Jrt.Chaos.seed = 1; faults; quantum = None; gc_period = None })
           ))
         [
           ( "late-spawn",
             [ Jrt.Chaos.Late_spawn { at_instr = 1000; stores = 4 } ] );
           ("class-load", [ Jrt.Chaos.Class_load { at_instr = 800 } ]);
           ( "barrier-skip",
             [ Jrt.Chaos.Barrier_skip { at_instr = 1000; victims = 4 } ] );
         ])

let both ~gc ~plan cw =
  let run engine =
    let chaos = plan () in
    Harness.Exp.run ~gc ~guards:true ?chaos ~fail_on_thread_error:false
      ~engine cw
  in
  let ri = run `Interp in
  let rt = run `Threaded in
  (Harness.Engines.diff ri rt, ri)

(* every collector x every plan, on the two workloads that exercise the
   widest machinery (db: swap/move-down phases; jbb: allocation-heavy
   with the deepest call graph) *)
let test_matrix () =
  let revocations = ref 0 in
  List.iter
    (fun w ->
      let cw = compile_full w in
      List.iter
        (fun (gc_name, gc) ->
          List.iter
            (fun (plan_name, plan) ->
              match both ~gc ~plan cw with
              | Some m, _ ->
                  Alcotest.failf "%s/%s/%s: engines diverge — %s"
                    (w : Workloads.Spec.t).name gc_name plan_name m
              | None, ri ->
                  revocations :=
                    !revocations
                    + ri.Jrt.Runner.machine.Jrt.Interp.revocation_events)
            plans)
        collectors)
    [ Workloads.Db.t; Workloads.Jbb.t ];
  (* the matrix must actually have exercised mid-run revocation, or the
     equality above proves less than it claims *)
  Alcotest.(check bool) "revocation fired somewhere" true (!revocations > 0)

(* random corner of the space: any Table 1 workload, any collector, any
   seed-derived chaos plan *)
let differential_prop =
  QCheck2.Test.make ~name:"engines agree under random chaos" ~count:30
    QCheck2.Gen.(
      triple
        (oneofl Workloads.Registry.table1)
        (oneofl collectors)
        (int_range 1 1000))
    (fun (w, (_, gc), seed) ->
      let cw = compile_full w in
      let plan () = Some (Jrt.Chaos.create (Jrt.Chaos.of_seed seed)) in
      fst (both ~gc ~plan cw) = None)

(* the flight recorder's event stream must be engine-invariant too,
   record for record; each stream is snapshotted right after its run,
   before the next run's begin_run resets the ring *)
let both_flight ~gc ~plan cw =
  let run engine =
    let chaos = plan () in
    let r =
      Harness.Exp.run ~gc ~guards:true ?chaos ~fail_on_thread_error:false
        ~engine cw
    in
    (r, Flight.events ())
  in
  let ri, ei = run `Interp in
  let rt, et = run `Threaded in
  Harness.Engines.diff ~flight:(ei, et) ri rt

let flight_parity_prop =
  QCheck2.Test.make ~name:"flight event streams agree across engines"
    ~count:12
    QCheck2.Gen.(
      triple
        (oneofl Workloads.Registry.table1)
        (oneofl collectors)
        (oneofl [ 42; 7; 101 ]))
    (fun (w, (_, gc), seed) ->
      let cw = compile_full w in
      let plan () = Some (Jrt.Chaos.create (Jrt.Chaos.of_seed seed)) in
      both_flight ~gc ~plan cw = None)

(* the bench cadence (coarser quantum and GC period) must agree too —
   it is what E17 times *)
let test_bench_cadence () =
  List.iter
    (fun (w : Workloads.Spec.t) ->
      let cw = compile_full w in
      let gc = Jrt.Runner.make_satb () in
      let run engine =
        Harness.Exp.run ~gc ~guards:true ~quantum:500 ~gc_period:512 ~engine
          cw
      in
      match Harness.Engines.diff (run `Interp) (run `Threaded) with
      | None -> ()
      | Some m ->
          Alcotest.failf "%s (bench cadence): engines diverge — %s" w.name m)
    Workloads.Registry.table1

(* Slice offsets: a safepoint every gc_period instructions cuts the
   threaded engine's fused blocks at a different offset for each period,
   so sweeping 1..40 lands slice ends at every position inside the
   blocks (and inside the iinc runs) of every bundled workload, where
   the two engines must still agree record for record. *)
let test_slice_offsets () =
  let gcs =
    [
      ("none", Jrt.Runner.No_gc);
      ("satb", Jrt.Runner.make_satb ());
      ("hybrid", Jrt.Runner.make_hybrid ());
    ]
  in
  List.iter
    (fun (w : Workloads.Spec.t) ->
      let cw = Harness.Exp.compile w in
      List.iter
        (fun (gc_name, gc) ->
          for gc_period = 1 to 40 do
            let run engine =
              let r = Harness.Exp.run ~gc ~gc_period ~engine cw in
              (r, Flight.events ())
            in
            let ri, ei = run `Interp in
            let rt, et = run `Threaded in
            match Harness.Engines.diff ~flight:(ei, et) ri rt with
            | None -> ()
            | Some m ->
                Alcotest.failf "%s/%s, gc_period %d: engines diverge — %s"
                  w.name gc_name gc_period m
          done)
        gcs)
    Workloads.Registry.all

(* A verified program that outlives its instruction budget stops
   cleanly under either engine, at the same step: the in-flight cycle
   is finished and checked, and it is no pacer hard stop. *)
let budget_src =
  {|
class Node
  field ref next
  method void <init> (ref) locals 1 ctor
    return
  end
end
class Main
  static ref head
  method void main () locals 1
  top:
    new Node
    dup
    invoke Node.<init>
    dup
    getstatic Main.head
    putfield Node.next
    putstatic Main.head
    aconst_null
    putstatic Main.head
    goto top
  end
end
|}

let test_budget_stop () =
  let prog = Jir.Parser.parse_linked budget_src in
  Jir.Verifier.verify_exn prog;
  let run engine =
    let cfg = { Jrt.Interp.default_config with max_steps = 5_000 } in
    let r =
      Jrt.Runner.run ~cfg ~engine
        ~gc:(Jrt.Runner.make_satb ~pacing:(Jrt.Pacer.config_of_trigger 24)
          ~steps_per_increment:8 ())
        prog ~entry:Workloads.Spec.main_entry
    in
    (r, Flight.events ())
  in
  let ri, ei = run `Interp in
  let rt, et = run `Threaded in
  let check_one name (r : Jrt.Runner.report) =
    Alcotest.(check bool) (name ^ ": out of steps") true r.out_of_steps;
    Alcotest.(check bool) (name ^ ": no hard stop") true (r.hard_stop = None);
    Alcotest.(check int) (name ^ ": steps") 5_001 r.steps;
    match r.gc, r.pacer with
    | Some g, Some p ->
        Alcotest.(check bool) (name ^ ": cycles ran") true (g.cycles > 0);
        Alcotest.(check int) (name ^ ": no violation") 0 g.total_violations;
        Alcotest.(check bool) (name ^ ": pacer saw no hard stop") true
          (p.Jrt.Pacer.p_hard_stop = None)
    | _ -> Alcotest.fail "a collector and a pacer were installed"
  in
  check_one "interp" ri;
  check_one "threaded" rt;
  match Harness.Engines.diff ~flight:(ei, et) ri rt with
  | None -> ()
  | Some m -> Alcotest.failf "budget stop: engines diverge — %s" m

(* An array longer than the maximum throws the program's bounds
   exception under either engine, and a handler catches it. *)
let test_array_length_max () =
  let src len =
    Printf.sprintf
      {|
class Main
  static int out
  method void main () locals 1
  t0:
    iconst %d
    inewarray
    pop
  t1:
    iconst 1
    putstatic Main.out
    return
  h:
    iconst 2
    putstatic Main.out
    return
    catch bounds t0 t1 h
  end
end
|}
      len
  in
  let out len engine =
    let prog = Jir.Parser.parse_linked (src len) in
    Jir.Verifier.verify_exn prog;
    let r = Jrt.Runner.run ~engine prog ~entry:Workloads.Spec.main_entry in
    Hashtbl.find r.machine.Jrt.Interp.statics ("Main", "out")
  in
  List.iter
    (fun engine ->
      Alcotest.(check bool) "at the maximum" true
        (out Jrt.Interp.max_array_length engine = Jrt.Value.Int 1);
      Alcotest.(check bool) "one past it" true
        (out (Jrt.Interp.max_array_length + 1) engine = Jrt.Value.Int 2);
      Alcotest.(check bool) "negative" true (out (-1) engine = Jrt.Value.Int 2))
    [ `Interp; `Threaded ]

(* Unbounded recursion: the call past [max_call_depth] kills the thread
   with "stack overflow" under either engine, at the same step, and the
   catch-all handler around the call never runs — for a call alone in
   its block and for one the threaded engine fuses with its argument's
   load; a recursion 100,000 calls deep runs cleanly. *)
let recursion_src =
  {|
class Main
  static int out
  method void forever () locals 0
  t0:
    invoke Main.forever
  t1:
    return
  h:
    iconst 1
    putstatic Main.out
    return
    catch any t0 t1 h
  end
  method void spin (int) locals 1
  t0:
    iload 0
    invoke Main.spin
  t1:
    return
  h:
    iconst 1
    putstatic Main.out
    return
    catch any t0 t1 h
  end
  method void spinning () locals 0
    iconst 7
    invoke Main.spin
    return
  end
  method int down (int) locals 1
    iload 0
    ifeq base
    iload 0
    iconst 1
    isub
    invoke Main.down
    iconst 1
    iadd
    ireturn
  base:
    iconst 0
    ireturn
  end
  method void deep () locals 0
    iconst 100000
    invoke Main.down
    putstatic Main.out
    return
  end
end
|}

let test_call_depth_max () =
  let prog = Jir.Parser.parse_linked recursion_src in
  Jir.Verifier.verify_exn prog;
  let run entry engine =
    let r =
      Jrt.Runner.run ~engine ~gc:(Jrt.Runner.make_satb ()) prog
        ~entry:{ Jir.Types.mclass = "Main"; mname = entry }
    in
    (r, Flight.events ())
  in
  let same name entry =
    let ri, ei = run entry `Interp in
    let rt, et = run entry `Threaded in
    (match Harness.Engines.diff ~flight:(ei, et) ri rt with
    | None -> ()
    | Some m -> Alcotest.failf "%s: engines diverge — %s" name m);
    ri
  in
  let out (r : Jrt.Runner.report) =
    Hashtbl.find r.machine.Jrt.Interp.statics ("Main", "out")
  in
  let r = same "unbounded" "forever" in
  Alcotest.(check (list (pair int string)))
    "the thread dies of stack overflow" [ (0, "stack overflow") ]
    r.thread_errors;
  Alcotest.(check int) "the call past the maximum is the last step"
    Jrt.Interp.max_call_depth r.steps;
  Alcotest.(check bool) "no handler catches it" true (out r = Jrt.Value.Int 0);
  let r = same "unbounded, fused call" "spinning" in
  Alcotest.(check (list (pair int string)))
    "a fused call dies the same way" [ (0, "stack overflow") ]
    r.thread_errors;
  Alcotest.(check bool) "no handler catches the fused call either" true
    (out r = Jrt.Value.Int 0);
  let r = same "100,000 deep" "deep" in
  Alcotest.(check (list (pair int string))) "no error" [] r.thread_errors;
  Alcotest.(check bool) "the recursion returns" true
    (out r = Jrt.Value.Int 100_000)

(* One integer width: ints are 62-bit two's complement on both engines,
   whether an op runs alone or inside a fused block.  The first program
   overflows 62 bits in a multiplication; the second branches on the
   sign of [2^60 + 2^60], which a fused block and a single-stepped op
   once computed differently; the rest compare, divide and index with a
   sum that only wraps at run time. *)
let width_src body =
  Printf.sprintf
    {|
class Main
  static int out
  method void main () locals 2
%s
    return
  end
end
|}
    body

let wide_mul =
  width_src
    {|    iconst 2305843009213693951
    iconst 2
    imul
    putstatic Main.out|}

let wide_sign =
  width_src
    {|    iconst 1152921504606846976
    iconst 1152921504606846976
    iadd
    iflt neg
    iconst 1
    putstatic Main.out
    return
  neg:
    iconst 2
    putstatic Main.out|}

(* the same sum from a local, so the engine compares at run time *)
let wide_sign_local =
  width_src
    {|    iconst 1152921504606846976
    istore 1
    iload 1
    iload 1
    iadd
    iflt neg
    iconst 1
    putstatic Main.out
    return
  neg:
    iconst 2
    putstatic Main.out|}

(* [(2^60 + 2^60) / 3] divides the wrapped sum *)
let wide_div =
  width_src
    {|    iconst 1152921504606846976
    istore 1
    iload 1
    iload 1
    iadd
    iconst 3
    idiv
    putstatic Main.out|}

(* [-2^61 + (-2^61 + 1)] indexes slot 1 *)
let wide_index =
  width_src
    {|    iconst 2
    inewarray
    astore 0
    iconst -2305843009213693952
    istore 1
    aload 0
    iload 1
    iconst -2305843009213693951
    iadd
    iconst 7
    iastore
    aload 0
    iconst 1
    iaload
    putstatic Main.out|}

let test_int_width () =
  let run src gc_period engine =
    let prog = Jir.Parser.parse_linked src in
    Jir.Verifier.verify_exn prog;
    let r =
      Jrt.Runner.run ~engine ~gc_period prog ~entry:Workloads.Spec.main_entry
    in
    (r, Flight.events ())
  in
  List.iter
    (fun (name, src, want) ->
      List.iter
        (fun gc_period ->
          let ri, ei = run src gc_period `Interp in
          let rt, et = run src gc_period `Threaded in
          (match Harness.Engines.diff ~flight:(ei, et) ri rt with
          | None -> ()
          | Some m ->
              Alcotest.failf "%s, gc_period %d: engines diverge — %s" name
                gc_period m);
          Alcotest.(check bool)
            (Printf.sprintf "%s, gc_period %d: 62-bit result" name gc_period)
            true
            (Hashtbl.find ri.machine.Jrt.Interp.statics ("Main", "out")
            = Jrt.Value.Int want))
        [ 1; 32 ])
    [
      ("2^61-1 * 2", wide_mul, -2);
      ("2^60 + 2^60 < 0", wide_sign, 2);
      ("local 2^60 + 2^60 < 0", wide_sign_local, 2);
      ("(2^60 + 2^60) / 3", wide_div, -(1 lsl 61) / 3);
      ("index -2^61 + (-2^61 + 1)", wide_index, 7);
    ]

(* Random straight-line programs over operands near ±2^60: locals,
   statics, an int array with computed indices, every arithmetic op,
   iinc, same-local iinc runs of 2-40 (whose chunks a slice tail runs,
   so a chunk boundary can fall across a wrap) and forward branches on
   comparisons.  Both engines at every gc_period in 1-12 and at 32 and
   1000 (gc_period 1 single-steps every op; 1000 runs every fused block
   whole) must end with the same statics, the same array and the same
   thread errors. *)
let width_gen =
  let open QCheck2.Gen in
  let near =
    oneof
      [
        oneofl [ 0; 1; -1; 2; 3; 7 ];
        map2 ( + )
          (oneofl
             [ 1 lsl 60; -(1 lsl 60); (1 lsl 61) - 1; -(1 lsl 61); max_int;
               min_int ])
          (int_range (-3) 3);
      ]
  in
  let const = map (fun n -> [ Printf.sprintf "iconst %d" n ]) near in
  let leaf =
    oneof
      [
        const;
        map (fun k -> [ Printf.sprintf "iload %d" k ]) (int_range 0 2);
        map
          (fun k -> [ Printf.sprintf "getstatic Main.s%d" k ])
          (int_range 0 3);
        map
          (fun i -> [ "aload 3"; Printf.sprintf "iconst %d" i; "iaload" ])
          (int_range 0 3);
      ]
  in
  (* an index: mostly in range, sometimes a sum that may wrap into it *)
  let index =
    frequency
      [
        (6, map (fun i -> [ Printf.sprintf "iconst %d" i ]) (int_range 0 3));
        (1, map2 (fun a b -> a @ b @ [ "iadd" ]) leaf const);
      ]
  in
  let rec expr n =
    if n <= 0 then leaf
    else
      frequency
        [
          (2, leaf);
          ( 3,
            map3
              (fun a b op -> a @ b @ [ op ])
              (expr (n / 2)) (expr (n / 2))
              (oneofl [ "iadd"; "isub"; "imul" ]) );
          (* an odd divisor [2b + 1] is never zero *)
          ( 1,
            map3
              (fun a b op ->
                a @ b @ [ "iconst 2"; "imul"; "iconst 1"; "iadd"; op ])
              (expr (n / 2)) (expr (n / 2))
              (oneofl [ "idiv"; "irem" ]) );
          (1, map (fun a -> a @ [ "ineg" ]) (expr (n - 1)));
        ]
  in
  let cond = oneofl [ "eq"; "ne"; "lt"; "ge"; "gt"; "le" ] in
  let stmt : (string -> string list) t =
    oneof
      [
        map2
          (fun e k _ -> e @ [ Printf.sprintf "istore %d" k ])
          (expr 4) (int_range 0 2);
        map2
          (fun e k _ -> e @ [ Printf.sprintf "putstatic Main.s%d" k ])
          (expr 4) (int_range 0 3);
        map2
          (fun e i _ -> ("aload 3" :: i) @ e @ [ "iastore" ])
          (expr 4) index;
        map2
          (fun k d _ -> [ Printf.sprintf "iinc %d %d" k d ])
          (int_range 0 2) near;
        map2
          (fun k ds _ -> List.map (Printf.sprintf "iinc %d %d" k) ds)
          (int_range 0 2)
          (list_size (int_range 2 40) near);
        map3
          (fun a b c l ->
            a @ b @ [ Printf.sprintf "if_icmp%s %s" c l; "iinc 0 1"; l ^ ":" ])
          (expr 3) (expr 3) cond;
        map2
          (fun a c l ->
            a @ [ Printf.sprintf "if%s %s" c l; "iinc 1 1"; l ^ ":" ])
          (expr 3) cond;
      ]
  in
  map
    (fun stmts ->
      let body =
        [ "iconst 0"; "istore 0"; "iconst 0"; "istore 1"; "iconst 0";
          "istore 2"; "iconst 4"; "inewarray"; "astore 3" ]
        @ List.concat (List.mapi (fun i f -> f (Printf.sprintf "l%d" i)) stmts)
      in
      Printf.sprintf
        "class Main\n\
        \  static int s0\n\
        \  static int s1\n\
        \  static int s2\n\
        \  static int s3\n\
        \  method void main () locals 4\n\
         %s\n\
        \    return\n\
        \  end\n\
         end\n"
        (String.concat "\n" (List.map (fun l -> "    " ^ l) body)))
    (list_size (int_range 1 12) stmt)

let width_prop =
  QCheck2.Test.make ~name:"one int width across engines and cadences"
    ~count:300 ~print:Fun.id width_gen (fun src ->
      let prog = Jir.Parser.parse_linked src in
      Jir.Verifier.verify_exn prog;
      let outcome engine gc_period =
        let r =
          Jrt.Runner.run ~engine ~quantum:1000 ~gc_period prog
            ~entry:Workloads.Spec.main_entry
        in
        let m = r.machine in
        ( List.map
            (fun k -> Hashtbl.find m.Jrt.Interp.statics ("Main", k))
            [ "s0"; "s1"; "s2"; "s3" ],
          List.init m.heap.Jrt.Heap.next_id (fun i ->
              (Jrt.Heap.get m.heap i).Jrt.Heap.payload),
          r.thread_errors )
      in
      let want = outcome `Interp 1 in
      List.for_all
        (fun (engine, gc_period) -> outcome engine gc_period = want)
        ((`Interp, 1000)
        :: List.map
             (fun p -> (`Threaded, p))
             (List.init 12 (fun i -> i + 1) @ [ 32; 1000 ])))

let tests =
  [
    Alcotest.test_case
      "engines identical: 4 collectors x {seeds, revocation, skip}" `Quick
      test_matrix;
    QCheck_alcotest.to_alcotest differential_prop;
    QCheck_alcotest.to_alcotest flight_parity_prop;
    Alcotest.test_case "engines identical at the bench cadence" `Quick
      test_bench_cadence;
    Alcotest.test_case "engines identical at slice offsets 1-40" `Quick
      test_slice_offsets;
    Alcotest.test_case "budget stop: same step, same outcome" `Quick
      test_budget_stop;
    Alcotest.test_case "array length maximum: bounds on both engines" `Quick
      test_array_length_max;
    Alcotest.test_case "call depth maximum: stack overflow on both engines"
      `Quick test_call_depth_max;
    Alcotest.test_case "one int width: overflow and sign on both engines"
      `Quick test_int_width;
    QCheck_alcotest.to_alcotest width_prop;
  ]
