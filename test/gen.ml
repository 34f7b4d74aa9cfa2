(* QCheck generators for the property tests. *)

module Q = QCheck2.Gen

(* ---- Intval ----------------------------------------------------------- *)

(* small coefficients/ids keep failures readable *)
let coeff = Q.int_range (-4) 4
let nonzero_coeff = Q.map (fun k -> if k >= 0 then k + 1 else k) coeff
let unknown_id = Q.int_range 0 3

let lin_intval : Satb_core.Intval.t Q.t =
  let open Q in
  let* var =
    oneof
      [
        return None;
        (let* a = nonzero_coeff in
         let* v = unknown_id in
         return (Some (a, v)));
      ]
  in
  let* n_consts = int_range 0 2 in
  let* consts =
    list_repeat n_consts
      (let* k = nonzero_coeff in
       let* c = unknown_id in
       return (k, c))
  in
  let* base = int_range (-20) 20 in
  (* normalize: sorted ids, unique, nonzero coeffs (drop duplicates) *)
  let consts =
    List.sort_uniq (fun (_, c1) (_, c2) -> compare c1 c2) consts
  in
  return
    (Satb_core.Intval.Lin { var; consts; base })

let intval : Satb_core.Intval.t Q.t =
  Q.frequency [ (1, Q.return Satb_core.Intval.Top); (9, lin_intval) ]

let literal_intval : Satb_core.Intval.t Q.t =
  Q.map Satb_core.Intval.const (Q.int_range (-50) 50)

(* ---- Intrange --------------------------------------------------------- *)

let intrange : Satb_core.Intrange.t Q.t =
  let open Q in
  oneof
    [
      return Satb_core.Intrange.Empty;
      map (fun v -> Satb_core.Intrange.From v) lin_intval;
      map (fun v -> Satb_core.Intrange.Up_to v) lin_intval;
      map2 (fun a b -> Satb_core.Intrange.Full (a, b)) lin_intval lin_intval;
    ]

(* ---- Refsym ----------------------------------------------------------- *)

let refsym : Satb_core.Refsym.t Q.t =
  let open Q in
  oneof
    [
      return Satb_core.Refsym.Global;
      map (fun i -> Satb_core.Refsym.Arg i) (int_range 0 3);
      map2
        (fun site recent -> Satb_core.Refsym.Alloc { site; recent })
        (int_range 0 5) bool;
    ]

let refset : Satb_core.Refsym.Set.t Q.t =
  Q.map Satb_core.Refsym.Set.of_list (Q.list_size (Q.int_range 0 4) refsym)

(* ---- Field_id --------------------------------------------------------- *)

(* names that share prefixes and differ in length, so the lexicographic
   order's corner cases come up *)
let member_name = Q.oneofl [ ""; "a"; "ab"; "b"; "ba"; "C"; "Ca"; "next" ]

let field_id : Satb_core.Field_id.t Q.t =
  let open Q in
  frequency
    [
      (1, return Satb_core.Field_id.Elems);
      (6, map2 (fun c f -> Satb_core.Field_id.F (c, f)) member_name member_name);
    ]

(* ---- random straight-line + loop programs for round-trip tests ------- *)

(* A small structured method generator: produces verifiable methods over
   one class with an int field, a ref field and a static.  The generator
   emits well-bracketed code so the verifier accepts it. *)

open Jir.Types

let class_def =
  {
    cname = "C";
    fields = [ { fd_name = "r"; fd_ty = R }; { fd_name = "i"; fd_ty = I } ];
    statics = [ { fd_name = "s"; fd_ty = R } ];
    methods =
      [
        {
          mname = "<init>";
          params = [ R ];
          ret = None;
          is_constructor = true;
          max_locals = 1;
          code = [| Return |];
          handlers = [];
          labels = [];
        };
        (* helpers the snippets may call, exercising the interprocedural
           summary transfer when the inline limit keeps them out of line *)
        {
          mname = "set";
          params = [ R; R ];
          ret = None;
          is_constructor = false;
          max_locals = 2;
          code =
            [|
              Aload 0; Aload 1; Putfield { fclass = "C"; fname = "r" }; Return;
            |];
          handlers = [];
          labels = [];
        };
        {
          mname = "leak";
          params = [ R ];
          ret = None;
          is_constructor = false;
          max_locals = 1;
          code = [| Aload 0; Putstatic { fclass = "C"; fname = "s" }; Return |];
          handlers = [];
          labels = [];
        };
        {
          mname = "get";
          params = [ R ];
          ret = Some R;
          is_constructor = false;
          max_locals = 1;
          code = [| Aload 0; Getfield { fclass = "C"; fname = "r" }; Areturn |];
          handlers = [];
          labels = [];
        };
        {
          mname = "mk";
          params = [];
          ret = Some R;
          is_constructor = false;
          max_locals = 0;
          code =
            [| New "C"; Dup; Invoke { mclass = "C"; mname = "<init>" }; Areturn |];
          handlers = [];
          labels = [];
        };
      ];
  }

(* straight-line snippets that leave the stack empty; locals: 0 = int,
   1 = ref, 2 = ref array or null (initialized in the prologue) *)
let snippets : string instr list list =
  [
    [ Iconst 7; Istore 0 ];
    [ Iload 0; Iconst 1; Ibin Add; Istore 0 ];
    [ Iinc (0, 3) ];
    [ Aload 1; Getfield { fclass = "C"; fname = "r" }; Astore 1 ];
    [ Aload 1; Aload 1; Putfield { fclass = "C"; fname = "r" } ];
    [ Aload 1; Iload 0; Putfield { fclass = "C"; fname = "i" } ];
    [ Getstatic { fclass = "C"; fname = "s" }; Astore 1 ];
    [ Aload 1; Putstatic { fclass = "C"; fname = "s" } ];
    [ Iconst 4; Newarray (Elem_ref "C"); Astore 2 ];
    [ Iconst 3; Newarray Elem_int; Pop ];
    [ New "C"; Dup; Invoke { mclass = "C"; mname = "<init>" }; Astore 1 ];
    [ Iload 0; Ineg; Istore 0 ];
    [ Iconst 2; Iconst 5; Ibin Mul; Istore 0 ];
    [ Aconst_null; Astore 1 ];
    (* calls: out-of-line at small inline limits *)
    [ Aload 1; Aconst_null; Invoke { mclass = "C"; mname = "set" } ];
    [ Aload 1; Aload 1; Invoke { mclass = "C"; mname = "set" } ];
    [ Aload 1; Invoke { mclass = "C"; mname = "leak" } ];
    [ Aload 1; Invoke { mclass = "C"; mname = "get" }; Astore 1 ];
    [ Invoke { mclass = "C"; mname = "mk" }; Astore 1 ];
    [ Aload 2; Iload 0; Aload 1; Aastore ];
  ]

(* int constants: small, or near ±2^61 and ±2^62, where a literal or a
   sum wraps at the programs' 62-bit int width, often into a valid array
   index *)
let gen_int : int Q.t =
  Q.frequency
    [
      (3, Q.int_range (-1) 4);
      ( 1,
        Q.map2 ( + )
          (Q.oneofl [ 1 lsl 61; -(1 lsl 61); max_int; min_int ])
          (Q.int_range (-3) 3) );
    ]

(* snippets over one such constant, same locals *)
let int_snippets : (int -> string instr list) list =
  [
    (fun n -> [ Iconst n; Istore 0 ]);
    (fun n -> [ Iload 0; Iconst n; Ibin Add; Istore 0 ]);
    (fun n -> [ Aload 2; Iconst n; Aload 1; Aastore ]);
    (fun n -> [ Aload 2; Iconst n; Aconst_null; Aastore ]);
  ]

let gen_snippet : string instr list Q.t =
  Q.frequency
    [
      (List.length snippets, Q.oneofl snippets);
      ( List.length int_snippets,
        Q.map2 (fun f n -> f n) (Q.oneofl int_snippets) gen_int );
    ]

let gen_method : meth Q.t =
  let open Q in
  let* picks = list_size (int_range 1 8) gen_snippet in
  let* with_loop = bool in
  let body = List.concat picks in
  let b =
    (* local 3 is the loop counter; snippets only touch locals 0-2 *)
    Jir.Builder.create ~name:"m" ~params:[] ~locals:4 ()
  in
  (* prologue: initialize locals *)
  Jir.Builder.emit_all b
    [
      Iconst 0;
      Istore 0;
      New "C";
      Dup;
      Invoke { mclass = "C"; mname = "<init>" };
      Astore 1;
      Aconst_null;
      Astore 2;
    ];
  if with_loop then begin
    Jir.Builder.emit_all b [ Iconst 3; Istore 3 ];
    Jir.Builder.label b "loop";
    Jir.Builder.emit_all b [ Iload 3; If_i (Le, "done") ];
    Jir.Builder.emit_all b body;
    Jir.Builder.emit_all b [ Iinc (3, -1); Goto "loop" ];
    Jir.Builder.label b "done";
    Jir.Builder.emit b Return
  end
  else begin
    Jir.Builder.emit_all b body;
    Jir.Builder.emit b Return
  end;
  return (Jir.Builder.finish b)

let gen_program : program Q.t =
  Q.map
    (fun m ->
      {
        classes =
          [
            class_def;
            { cname = "Main"; fields = []; statics = []; methods = [ m ] };
          ];
      })
    gen_method
