(* Interpreter tests: arithmetic, control flow, heap, calls, threads,
   exceptions. *)

let run ?(entry = "Main.main") src =
  let prog = Jir.Parser.parse_linked src in
  Jir.Verifier.verify_exn prog;
  let entry_ref =
    match String.split_on_char '.' entry with
    | [ c; m ] -> { Jir.Types.mclass = c; mname = m }
    | _ -> failwith "bad entry"
  in
  Jrt.Runner.run prog ~entry:entry_ref

(* the result cell: tests write an int into Main.out *)
let out_static (r : Jrt.Runner.report) =
  match Hashtbl.find_opt r.machine.Jrt.Interp.statics ("Main", "out") with
  | Some (Jrt.Value.Int n) -> n
  | Some v -> Alcotest.failf "Main.out holds %a" Jrt.Value.pp v
  | None -> Alcotest.fail "no Main.out static"

let check_out name src expected =
  let r = run src in
  Alcotest.(check (list (pair int string))) (name ^ " thread errors") []
    r.thread_errors;
  Alcotest.(check int) name expected (out_static r)

let test_arith () =
  check_out "((10-3)*4+6)/2 rem 5"
    {|
class Main
  static int out
  method void main () locals 0
    iconst 10
    iconst 3
    isub
    iconst 4
    imul
    iconst 6
    iadd
    iconst 2
    idiv
    iconst 5
    irem
    putstatic Main.out
    return
  end
end
|}
    2

let test_factorial_recursion () =
  check_out "6! via recursion"
    {|
class Main
  static int out
  method int fact (int) locals 1
    iload 0
    iconst 1
    if_icmpgt rec
    iconst 1
    ireturn
  rec:
    iload 0
    iload 0
    iconst 1
    isub
    invoke Main.fact
    imul
    ireturn
  end
  method void main () locals 0
    iconst 6
    invoke Main.fact
    putstatic Main.out
    return
  end
end
|}
    720

let test_objects_and_arrays () =
  check_out "object graph and arrays"
    {|
class Node
  field ref next
  field int v
  method void <init> (ref int) locals 2 ctor
    aload 0
    iload 1
    putfield Node.v
    return
  end
end
class Main
  static int out
  method void main () locals 3
    ; build 2-node list: a.v=5, b.v=37, a.next=b
    new Node
    dup
    iconst 5
    invoke Node.<init>
    astore 0
    new Node
    dup
    iconst 37
    invoke Node.<init>
    astore 1
    aload 0
    aload 1
    putfield Node.next
    ; out = a.v + a.next.v  plus an int-array round trip
    aload 0
    getfield Node.v
    aload 0
    getfield Node.next
    getfield Node.v
    iadd
    istore 2
    iconst 3
    inewarray
    astore 1
    aload 1
    iconst 2
    iload 2
    iastore
    aload 1
    iconst 2
    iaload
    putstatic Main.out
    return
  end
end
|}
    42

let test_swap_dup_pop () =
  check_out "stack shuffles"
    {|
class Main
  static int out
  method void main () locals 0
    iconst 1
    iconst 2
    swap
    isub        ; 2 - 1 = 1
    dup
    iadd        ; 2
    iconst 9
    pop
    putstatic Main.out
    return
  end
end
|}
    2

let test_div_by_zero_handler () =
  check_out "arith exception caught"
    {|
class Main
  static int out
  method void main () locals 0
  t0:
    iconst 1
    iconst 0
    idiv
    putstatic Main.out
  t1:
    return
  h:
    iconst 99
    putstatic Main.out
    return
    catch arith t0 t1 h
  end
end
|}
    99

let test_bounds_handler () =
  check_out "bounds exception caught"
    {|
class T
  method void <init> (ref) locals 1 ctor
    return
  end
end
class Main
  static int out
  method void main () locals 1
  t0:
    iconst 2
    anewarray T
    astore 0
    aload 0
    iconst 5
    aaload
    pop
    iconst 0
    putstatic Main.out
  t1:
    return
  h:
    iconst 7
    putstatic Main.out
    return
    catch bounds t0 t1 h
  end
end
|}
    7

let test_null_deref_handler () =
  check_out "null deref caught via any-handler"
    {|
class T
  field ref f
  method void <init> (ref) locals 1 ctor
    return
  end
end
class Main
  static int out
  method void main () locals 1
  t0:
    aconst_null
    astore 0
    aload 0
    getfield T.f
    pop
    iconst 0
    putstatic Main.out
  t1:
    return
  h:
    iconst 13
    putstatic Main.out
    return
    catch any t0 t1 h
  end
end
|}
    13

let test_exception_unwinds_frames () =
  check_out "exception propagates through callee"
    {|
class Main
  static int out
  method void boom () locals 0
    iconst 1
    iconst 0
    idiv
    pop
    return
  end
  method void main () locals 0
  t0:
    invoke Main.boom
    iconst 0
    putstatic Main.out
  t1:
    return
  h:
    iconst 21
    putstatic Main.out
    return
    catch arith t0 t1 h
  end
end
|}
    21

let test_uncaught_exception_kills_thread () =
  let r =
    run
      {|
class Main
  static int out
  method void main () locals 0
    iconst 1
    iconst 0
    idiv
    putstatic Main.out
    return
  end
end
|}
  in
  match r.thread_errors with
  | [ (0, msg) ] -> Alcotest.(check string) "error kind" "arith" msg
  | other ->
      Alcotest.failf "expected main-thread death, got %d errors"
        (List.length other)

let test_threads_interleave () =
  (* two spawned workers count in private locals and publish to disjoint
     statics, so the check is interleaving-independent; a shared counter
     would exhibit (deterministic, scheduler-dependent) lost updates *)
  let r =
    run
      {|
class Main
  static int out
  static int out2
  method void worker1 (int) locals 2
    iconst 0
    istore 1
  loop:
    iload 1
    iload 0
    if_icmpge fin
    iinc 1 1
    goto loop
  fin:
    iload 1
    putstatic Main.out
    return
  end
  method void worker2 (int) locals 2
    iconst 0
    istore 1
  loop:
    iload 1
    iload 0
    if_icmpge fin
    iinc 1 1
    goto loop
  fin:
    iload 1
    putstatic Main.out2
    return
  end
  method void main () locals 0
    iconst 40
    spawn Main.worker1
    iconst 41
    spawn Main.worker2
    return
  end
end
|}
  in
  Alcotest.(check (list (pair int string))) "no errors" [] r.thread_errors;
  Alcotest.(check int) "worker 1 finished" 40 (out_static r);
  match Hashtbl.find_opt r.machine.Jrt.Interp.statics ("Main", "out2") with
  | Some (Jrt.Value.Int n) -> Alcotest.(check int) "worker 2 finished" 41 n
  | _ -> Alcotest.fail "no out2"

let test_negative_array_size () =
  check_out "negative array size raises bounds"
    {|
class T
  method void <init> (ref) locals 1 ctor
    return
  end
end
class Main
  static int out
  method void main () locals 0
  t0:
    iconst 1
    ineg
    anewarray T
    pop
    iconst 0
    putstatic Main.out
  t1:
    return
  h:
    iconst 3
    putstatic Main.out
    return
    catch bounds t0 t1 h
  end
end
|}
    3

let test_site_stats_count_prenull () =
  (* write the same field twice: first pre-null, second not *)
  let r =
    run
      {|
class T
  field ref f
  method void <init> (ref) locals 1 ctor
    return
  end
end
class Main
  static ref sink
  method void main () locals 1
    new T
    dup
    invoke T.<init>
    astore 0
    aload 0
    aload 0
    putfield T.f
    aload 0
    aload 0
    putfield T.f
    return
  end
end
|}
  in
  let d = r.dyn in
  Alcotest.(check int) "2 executions" 2 d.total_execs;
  (* two distinct sites: the first always sees null (potentially
     pre-null), the second always sees the first value *)
  Alcotest.(check int) "one potentially-pre-null execution" 1
    d.pot_pre_null_execs

let tests =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("arithmetic", test_arith);
      ("recursion", test_factorial_recursion);
      ("objects and arrays", test_objects_and_arrays);
      ("stack shuffles", test_swap_dup_pop);
      ("div by zero handler", test_div_by_zero_handler);
      ("bounds handler", test_bounds_handler);
      ("null deref handler", test_null_deref_handler);
      ("exception unwinds frames", test_exception_unwinds_frames);
      ("uncaught kills thread", test_uncaught_exception_kills_thread);
      ("threads interleave", test_threads_interleave);
      ("negative array size", test_negative_array_size);
      ("site stats pre-null", test_site_stats_count_prenull);
    ]
