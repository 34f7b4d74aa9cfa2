(* One barrier body, every verdict shape.  A single store site runs
   under each shape — both flavours, marking on and off, a null and a
   non-null pre-value — on both engines, and every counter the barrier
   touches must match the table.  The table was recorded from the
   barrier bodies this one replaced (five fused fast paths, the general
   SATB body and the hybrid body), before they were removed. *)

module I = Jrt.Interp

(* [main] allocates two nodes and stores the second into the first's
   field; with [pre_nonnull] a kept store does the same first, so the
   store under test overwrites a non-null value *)
let src ~pre_nonnull =
  Printf.sprintf
    {|
class Node
  field ref next
  method void <init> (ref) locals 1 ctor
    return
  end
end
class Main
  method void main () locals 2
    new Node
    dup
    invoke Node.<init>
    astore 0
    new Node
    dup
    invoke Node.<init>
    astore 1
%s
    aload 0
    aload 1
    putfield Node.next
    return
  end
end
|}
    (if pre_nonnull then "    aload 0\n    aload 1\n    putfield Node.next"
     else "")

type shape = { hybrid : bool; verdict : I.verdict; degraded : bool }

let satb ?(degraded = false) verdict = { hybrid = false; verdict; degraded }
let hybrid verdict = { hybrid = true; verdict; degraded = false }
let elide = { I.keep with del_elide = true }

let swap check =
  { elide with check; del_guards = [ Jir.Types.Retrace_collector ] }

let shapes =
  [
    ("satb kept", satb I.keep);
    ("satb elided", satb elide);
    ("satb guarded", satb { elide with del_guards = [ Jir.Types.Single_mutator ] });
    ("satb swap open", satb (swap I.Check_open));
    ("satb swap close", satb (swap I.Check_close));
    ("satb swap open degraded", satb ~degraded:true (swap I.Check_open));
    ("satb swap close degraded", satb ~degraded:true (swap I.Check_close));
    ("hybrid kept", hybrid I.keep);
    ("hybrid del only", hybrid elide);
    ("hybrid ins only", hybrid { I.keep with ins_elide = true });
    ( "hybrid ins only repair",
      hybrid { I.keep with ins_elide = true; ins_repair = true } );
    ("hybrid both", hybrid { elide with ins_elide = true });
    ( "hybrid guarded halves",
      hybrid
        {
          elide with
          ins_elide = true;
          del_guards = [ Jir.Types.Single_mutator ];
          ins_guards = [ Jir.Types.Closed_world ];
        } );
  ]

(* the store under test's counters, the machine's, and the calls the
   collector saw, under a stub collector whose marking flag is
   [marking] *)
let run shape ~marking ~pre_nonnull engine : string * string * string =
  let prog = Jir.Parser.parse_linked (src ~pre_nonnull) in
  Jir.Verifier.verify_exn prog;
  let site_pc = if pre_nonnull then 13 else 10 in
  let cfg =
    {
      I.default_config with
      policy = (fun _ _ pc -> if pc = site_pc then shape.verdict else I.keep);
      barrier_flavor = (if shape.hybrid then `Hybrid else `Satb);
    }
  in
  let m = I.create ~cfg prog in
  let logs = ref 0 and ins = ref 0 and unlogged = ref 0 in
  I.set_collector m
    {
      Jrt.Gc_hooks.none with
      is_marking = (fun () -> marking);
      log_ref_store = (fun ~obj:_ ~pre:_ -> incr logs);
      log_ins_store = (fun ~tid:_ ~nv:_ -> incr ins);
      on_unlogged_store = (fun ~obj:_ -> incr unlogged);
    };
  m.I.track_heap <- true;
  if shape.degraded then I.set_swap_degraded m;
  let th = I.spawn_thread m Workloads.Spec.main_entry [] in
  (match engine with
  | `Interp -> while I.step m th do () done
  | `Threaded -> ignore (Jrt.Exec.slice (Jrt.Exec.create m) th ~fuel:100));
  let st =
    Hashtbl.find m.I.stats
      { I.s_class = "Main"; s_method = "main"; s_pc = site_pc }
  in
  ( Printf.sprintf
      "execs=%d pre_null=%d paid=%d elided=%d del=%d/%d ins=%d/%d units=%d"
      st.execs st.pre_null_execs st.paid_execs st.elided_execs
      st.del_paid_execs st.del_elided_execs st.ins_paid_execs
      st.ins_elided_execs st.barrier_units,
    Printf.sprintf
      "units=%d paid=%d elided=%d guarded=%d checks=%d degraded=%d \
       window=%b log=[%s]"
      m.I.barrier_units m.I.barriers_executed m.I.elided_barrier_execs
      (List.length m.I.guarded_writes)
      m.I.retrace_checks m.I.degraded_swap_execs m.I.in_no_safepoint
      (String.concat ";"
         (List.map
            (fun (o, c) -> Printf.sprintf "%d:%d" o c)
            m.I.elided_write_log)),
    Printf.sprintf "logs=%d ins=%d unlogged=%d" !logs !ins !unlogged )

(* (shape, marking, pre-value non-null, expected site / machine /
   collector) *)
let table =
  [
    ( "satb kept", false, false,
      "execs=1 pre_null=1 paid=1 elided=0 del=0/0 ins=0/0 units=3",
      "units=3 paid=1 elided=0 guarded=0 checks=0 degraded=0 window=false log=[]",
      "logs=1 ins=0 unlogged=0" );
    ( "satb kept", false, true,
      "execs=1 pre_null=0 paid=1 elided=0 del=0/0 ins=0/0 units=3",
      "units=6 paid=2 elided=0 guarded=0 checks=0 degraded=0 window=false log=[]",
      "logs=2 ins=0 unlogged=0" );
    ( "satb kept", true, false,
      "execs=1 pre_null=1 paid=1 elided=0 del=0/0 ins=0/0 units=7",
      "units=7 paid=1 elided=0 guarded=0 checks=0 degraded=0 window=false log=[]",
      "logs=1 ins=0 unlogged=0" );
    ( "satb kept", true, true,
      "execs=1 pre_null=0 paid=1 elided=0 del=0/0 ins=0/0 units=12",
      "units=19 paid=2 elided=0 guarded=0 checks=0 degraded=0 window=false log=[]",
      "logs=2 ins=0 unlogged=0" );
    ( "satb elided", false, false,
      "execs=1 pre_null=1 paid=0 elided=1 del=0/0 ins=0/0 units=0",
      "units=0 paid=0 elided=1 guarded=0 checks=0 degraded=0 window=false log=[]",
      "logs=0 ins=0 unlogged=0" );
    ( "satb elided", false, true,
      "execs=1 pre_null=0 paid=0 elided=1 del=0/0 ins=0/0 units=0",
      "units=3 paid=1 elided=1 guarded=0 checks=0 degraded=0 window=false log=[]",
      "logs=1 ins=0 unlogged=0" );
    ( "satb elided", true, false,
      "execs=1 pre_null=1 paid=0 elided=1 del=0/0 ins=0/0 units=0",
      "units=0 paid=0 elided=1 guarded=0 checks=0 degraded=0 window=false log=[0:0]",
      "logs=0 ins=0 unlogged=0" );
    ( "satb elided", true, true,
      "execs=1 pre_null=0 paid=0 elided=1 del=0/0 ins=0/0 units=0",
      "units=7 paid=1 elided=1 guarded=0 checks=0 degraded=0 window=false log=[0:0]",
      "logs=1 ins=0 unlogged=0" );
    ( "satb guarded", false, false,
      "execs=1 pre_null=1 paid=0 elided=1 del=0/0 ins=0/0 units=0",
      "units=0 paid=0 elided=1 guarded=0 checks=0 degraded=0 window=false log=[]",
      "logs=0 ins=0 unlogged=0" );
    ( "satb guarded", false, true,
      "execs=1 pre_null=0 paid=0 elided=1 del=0/0 ins=0/0 units=0",
      "units=3 paid=1 elided=1 guarded=0 checks=0 degraded=0 window=false log=[]",
      "logs=1 ins=0 unlogged=0" );
    ( "satb guarded", true, false,
      "execs=1 pre_null=1 paid=0 elided=1 del=0/0 ins=0/0 units=0",
      "units=0 paid=0 elided=1 guarded=1 checks=0 degraded=0 window=false log=[0:0]",
      "logs=0 ins=0 unlogged=0" );
    ( "satb guarded", true, true,
      "execs=1 pre_null=0 paid=0 elided=1 del=0/0 ins=0/0 units=0",
      "units=7 paid=1 elided=1 guarded=1 checks=0 degraded=0 window=false log=[0:0]",
      "logs=1 ins=0 unlogged=0" );
    ( "satb swap open", false, false,
      "execs=1 pre_null=1 paid=0 elided=1 del=0/0 ins=0/0 units=3",
      "units=3 paid=0 elided=1 guarded=0 checks=1 degraded=0 window=true log=[]",
      "logs=0 ins=0 unlogged=1" );
    ( "satb swap open", false, true,
      "execs=1 pre_null=0 paid=0 elided=1 del=0/0 ins=0/0 units=3",
      "units=6 paid=1 elided=1 guarded=0 checks=1 degraded=0 window=true log=[]",
      "logs=1 ins=0 unlogged=1" );
    ( "satb swap open", true, false,
      "execs=1 pre_null=1 paid=0 elided=1 del=0/0 ins=0/0 units=3",
      "units=3 paid=0 elided=1 guarded=1 checks=1 degraded=0 window=true log=[0:0]",
      "logs=0 ins=0 unlogged=1" );
    ( "satb swap open", true, true,
      "execs=1 pre_null=0 paid=0 elided=1 del=0/0 ins=0/0 units=3",
      "units=10 paid=1 elided=1 guarded=1 checks=1 degraded=0 window=true log=[0:0]",
      "logs=1 ins=0 unlogged=1" );
    ( "satb swap close", false, false,
      "execs=1 pre_null=1 paid=0 elided=1 del=0/0 ins=0/0 units=3",
      "units=3 paid=0 elided=1 guarded=0 checks=1 degraded=0 window=false log=[]",
      "logs=0 ins=0 unlogged=1" );
    ( "satb swap close", false, true,
      "execs=1 pre_null=0 paid=0 elided=1 del=0/0 ins=0/0 units=3",
      "units=6 paid=1 elided=1 guarded=0 checks=1 degraded=0 window=false log=[]",
      "logs=1 ins=0 unlogged=1" );
    ( "satb swap close", true, false,
      "execs=1 pre_null=1 paid=0 elided=1 del=0/0 ins=0/0 units=3",
      "units=3 paid=0 elided=1 guarded=1 checks=1 degraded=0 window=false log=[0:0]",
      "logs=0 ins=0 unlogged=1" );
    ( "satb swap close", true, true,
      "execs=1 pre_null=0 paid=0 elided=1 del=0/0 ins=0/0 units=3",
      "units=10 paid=1 elided=1 guarded=1 checks=1 degraded=0 window=false log=[0:0]",
      "logs=1 ins=0 unlogged=1" );
    ( "satb swap open degraded", false, false,
      "execs=1 pre_null=1 paid=1 elided=0 del=0/0 ins=0/0 units=3",
      "units=3 paid=1 elided=0 guarded=0 checks=0 degraded=1 window=false log=[]",
      "logs=1 ins=0 unlogged=0" );
    ( "satb swap open degraded", false, true,
      "execs=1 pre_null=0 paid=1 elided=0 del=0/0 ins=0/0 units=3",
      "units=6 paid=2 elided=0 guarded=0 checks=0 degraded=1 window=false log=[]",
      "logs=2 ins=0 unlogged=0" );
    ( "satb swap open degraded", true, false,
      "execs=1 pre_null=1 paid=1 elided=0 del=0/0 ins=0/0 units=7",
      "units=7 paid=1 elided=0 guarded=0 checks=0 degraded=1 window=false log=[]",
      "logs=1 ins=0 unlogged=0" );
    ( "satb swap open degraded", true, true,
      "execs=1 pre_null=0 paid=1 elided=0 del=0/0 ins=0/0 units=12",
      "units=19 paid=2 elided=0 guarded=0 checks=0 degraded=1 window=false log=[]",
      "logs=2 ins=0 unlogged=0" );
    ( "satb swap close degraded", false, false,
      "execs=1 pre_null=1 paid=1 elided=0 del=0/0 ins=0/0 units=3",
      "units=3 paid=1 elided=0 guarded=0 checks=0 degraded=1 window=false log=[]",
      "logs=1 ins=0 unlogged=0" );
    ( "satb swap close degraded", false, true,
      "execs=1 pre_null=0 paid=1 elided=0 del=0/0 ins=0/0 units=3",
      "units=6 paid=2 elided=0 guarded=0 checks=0 degraded=1 window=false log=[]",
      "logs=2 ins=0 unlogged=0" );
    ( "satb swap close degraded", true, false,
      "execs=1 pre_null=1 paid=1 elided=0 del=0/0 ins=0/0 units=7",
      "units=7 paid=1 elided=0 guarded=0 checks=0 degraded=1 window=false log=[]",
      "logs=1 ins=0 unlogged=0" );
    ( "satb swap close degraded", true, true,
      "execs=1 pre_null=0 paid=1 elided=0 del=0/0 ins=0/0 units=12",
      "units=19 paid=2 elided=0 guarded=0 checks=0 degraded=1 window=false log=[]",
      "logs=2 ins=0 unlogged=0" );
    ( "hybrid kept", false, false,
      "execs=1 pre_null=1 paid=1 elided=0 del=1/0 ins=1/0 units=6",
      "units=6 paid=1 elided=0 guarded=0 checks=0 degraded=0 window=false log=[]",
      "logs=1 ins=1 unlogged=0" );
    ( "hybrid kept", false, true,
      "execs=1 pre_null=0 paid=1 elided=0 del=1/0 ins=1/0 units=6",
      "units=12 paid=2 elided=0 guarded=0 checks=0 degraded=0 window=false log=[]",
      "logs=2 ins=2 unlogged=0" );
    ( "hybrid kept", true, false,
      "execs=1 pre_null=1 paid=1 elided=0 del=1/0 ins=1/0 units=17",
      "units=17 paid=1 elided=0 guarded=0 checks=0 degraded=0 window=false log=[]",
      "logs=1 ins=1 unlogged=0" );
    ( "hybrid kept", true, true,
      "execs=1 pre_null=0 paid=1 elided=0 del=1/0 ins=1/0 units=22",
      "units=39 paid=2 elided=0 guarded=0 checks=0 degraded=0 window=false log=[]",
      "logs=2 ins=2 unlogged=0" );
    ( "hybrid del only", false, false,
      "execs=1 pre_null=1 paid=1 elided=0 del=0/1 ins=1/0 units=3",
      "units=3 paid=1 elided=0 guarded=0 checks=0 degraded=0 window=false log=[]",
      "logs=0 ins=1 unlogged=0" );
    ( "hybrid del only", false, true,
      "execs=1 pre_null=0 paid=1 elided=0 del=0/1 ins=1/0 units=3",
      "units=9 paid=2 elided=0 guarded=0 checks=0 degraded=0 window=false log=[]",
      "logs=1 ins=2 unlogged=0" );
    ( "hybrid del only", true, false,
      "execs=1 pre_null=1 paid=1 elided=0 del=0/1 ins=1/0 units=10",
      "units=10 paid=1 elided=0 guarded=0 checks=0 degraded=0 window=false log=[0:1]",
      "logs=0 ins=1 unlogged=0" );
    ( "hybrid del only", true, true,
      "execs=1 pre_null=0 paid=1 elided=0 del=0/1 ins=1/0 units=10",
      "units=27 paid=2 elided=0 guarded=0 checks=0 degraded=0 window=false log=[0:1]",
      "logs=1 ins=2 unlogged=0" );
    ( "hybrid ins only", false, false,
      "execs=1 pre_null=1 paid=1 elided=0 del=1/0 ins=0/1 units=3",
      "units=3 paid=1 elided=0 guarded=0 checks=0 degraded=0 window=false log=[]",
      "logs=1 ins=0 unlogged=0" );
    ( "hybrid ins only", false, true,
      "execs=1 pre_null=0 paid=1 elided=0 del=1/0 ins=0/1 units=3",
      "units=9 paid=2 elided=0 guarded=0 checks=0 degraded=0 window=false log=[]",
      "logs=2 ins=1 unlogged=0" );
    ( "hybrid ins only", true, false,
      "execs=1 pre_null=1 paid=1 elided=0 del=1/0 ins=0/1 units=7",
      "units=7 paid=1 elided=0 guarded=0 checks=0 degraded=0 window=false log=[0:2]",
      "logs=1 ins=0 unlogged=0" );
    ( "hybrid ins only", true, true,
      "execs=1 pre_null=0 paid=1 elided=0 del=1/0 ins=0/1 units=12",
      "units=29 paid=2 elided=0 guarded=0 checks=0 degraded=0 window=false log=[0:2]",
      "logs=2 ins=1 unlogged=0" );
    ( "hybrid ins only repair", false, false,
      "execs=1 pre_null=1 paid=1 elided=0 del=1/0 ins=0/1 units=3",
      "units=3 paid=1 elided=0 guarded=0 checks=0 degraded=0 window=false log=[]",
      "logs=1 ins=0 unlogged=0" );
    ( "hybrid ins only repair", false, true,
      "execs=1 pre_null=0 paid=1 elided=0 del=1/0 ins=0/1 units=3",
      "units=9 paid=2 elided=0 guarded=0 checks=0 degraded=0 window=false log=[]",
      "logs=2 ins=1 unlogged=0" );
    ( "hybrid ins only repair", true, false,
      "execs=1 pre_null=1 paid=1 elided=0 del=1/0 ins=0/1 units=7",
      "units=7 paid=1 elided=0 guarded=1 checks=0 degraded=0 window=false log=[0:2]",
      "logs=1 ins=0 unlogged=0" );
    ( "hybrid ins only repair", true, true,
      "execs=1 pre_null=0 paid=1 elided=0 del=1/0 ins=0/1 units=12",
      "units=29 paid=2 elided=0 guarded=1 checks=0 degraded=0 window=false log=[0:2]",
      "logs=2 ins=1 unlogged=0" );
    ( "hybrid both", false, false,
      "execs=1 pre_null=1 paid=0 elided=1 del=0/1 ins=0/1 units=0",
      "units=0 paid=0 elided=1 guarded=0 checks=0 degraded=0 window=false log=[]",
      "logs=0 ins=0 unlogged=0" );
    ( "hybrid both", false, true,
      "execs=1 pre_null=0 paid=0 elided=1 del=0/1 ins=0/1 units=0",
      "units=6 paid=1 elided=1 guarded=0 checks=0 degraded=0 window=false log=[]",
      "logs=1 ins=1 unlogged=0" );
    ( "hybrid both", true, false,
      "execs=1 pre_null=1 paid=0 elided=1 del=0/1 ins=0/1 units=0",
      "units=0 paid=0 elided=1 guarded=0 checks=0 degraded=0 window=false log=[0:3]",
      "logs=0 ins=0 unlogged=0" );
    ( "hybrid both", true, true,
      "execs=1 pre_null=0 paid=0 elided=1 del=0/1 ins=0/1 units=0",
      "units=17 paid=1 elided=1 guarded=0 checks=0 degraded=0 window=false log=[0:3]",
      "logs=1 ins=1 unlogged=0" );
    ( "hybrid guarded halves", false, false,
      "execs=1 pre_null=1 paid=0 elided=1 del=0/1 ins=0/1 units=0",
      "units=0 paid=0 elided=1 guarded=0 checks=0 degraded=0 window=false log=[]",
      "logs=0 ins=0 unlogged=0" );
    ( "hybrid guarded halves", false, true,
      "execs=1 pre_null=0 paid=0 elided=1 del=0/1 ins=0/1 units=0",
      "units=6 paid=1 elided=1 guarded=0 checks=0 degraded=0 window=false log=[]",
      "logs=1 ins=1 unlogged=0" );
    ( "hybrid guarded halves", true, false,
      "execs=1 pre_null=1 paid=0 elided=1 del=0/1 ins=0/1 units=0",
      "units=0 paid=0 elided=1 guarded=1 checks=0 degraded=0 window=false log=[0:3]",
      "logs=0 ins=0 unlogged=0" );
    ( "hybrid guarded halves", true, true,
      "execs=1 pre_null=0 paid=0 elided=1 del=0/1 ins=0/1 units=0",
      "units=17 paid=1 elided=1 guarded=1 checks=0 degraded=0 window=false log=[0:3]",
      "logs=1 ins=1 unlogged=0" );
  ]

let test_every_shape () =
  List.iter
    (fun (name, marking, pre_nonnull, site, machine, collector) ->
      let shape = List.assoc name shapes in
      List.iter
        (fun (engine, label) ->
          let case what =
            Printf.sprintf "%s, marking %b, pre %s, %s: %s" name marking
              (if pre_nonnull then "non-null" else "null")
              label what
          in
          let s, m, c = run shape ~marking ~pre_nonnull engine in
          Alcotest.(check string) (case "site") site s;
          Alcotest.(check string) (case "machine") machine m;
          Alcotest.(check string) (case "collector") collector c)
        [ (`Interp, "interp"); (`Threaded, "threaded") ])
    table;
  Alcotest.(check int) "every shape, marking and pre-value"
    (List.length shapes * 4) (List.length table)

let tests =
  [ Alcotest.test_case "one body, every verdict shape" `Quick test_every_shape ]
