(** E9 — ablation study over the design choices DESIGN.md calls out.

    Variants, each measured as dynamic elimination (and verified sound
    under SATB):
    - {b full}: the complete field+array analysis (mode A);
    - {b 1-name}: the §2.4 two-names-per-allocation-site precision
      disabled — every site collapses to its (non-unique) summary name,
      so strong update and the fresh-object facts are lost;
    - {b no-stride}: the Figure 1 stride-discovery merge disabled by
      widening every loop-head merge immediately ([max_visits = 0]), so
      no loop invariant over array null ranges survives;
    - {b field-only}: mode F (also one of the paper's own Figure 2
      configurations, repeated here for comparison);
    - {b rearrange}: the full analysis plus both §4.3 rearrangement
      extensions (move-down and pairwise swap), run under the retrace
      collector whose tracing-state protocol the swap elision
      requires. *)

type variant = Full | One_name | No_stride | Field_only | Rearrange

let variants = [ Full; One_name; No_stride; Field_only; Rearrange ]

let string_of_variant = function
  | Full -> "full"
  | One_name -> "1-name"
  | No_stride -> "no-stride"
  | Field_only -> "field-only"
  | Rearrange -> "rearrange"

let conf_of = function
  | Full -> Satb_core.Analysis.default_config
  | One_name -> { Satb_core.Analysis.default_config with two_names = false }
  | No_stride -> { Satb_core.Analysis.default_config with max_visits = 0 }
  | Field_only ->
      { Satb_core.Analysis.default_config with mode = Satb_core.Analysis.F }
  | Rearrange ->
      { Satb_core.Analysis.default_config with move_down = true; swap = true }

type row = { bench : string; elim : (variant * float) list }

let pct num den =
  if den = 0 then 0.0 else 100.0 *. float_of_int num /. float_of_int den

let measure_one (w : Workloads.Spec.t) : row =
  let elim variant =
    let prog = Workloads.Spec.parse w in
    let compiled =
      Satb_core.Driver.compile ~inline_limit:100 ~conf:(conf_of variant) prog
    in
    (* The swap elision is only sound under the retrace collector. *)
    let gc =
      match variant with
      | Rearrange -> Jrt.Runner.make_retrace ~trigger_allocs:24 ()
      | Full | One_name | No_stride | Field_only ->
          Jrt.Runner.make_satb ~trigger_allocs:24 ()
    in
    let r = Exp.run ~gc { Exp.workload = w; compiled } in
    (match r.gc with
    | Some g when g.total_violations > 0 ->
        Fmt.failwith "%s/%s: marking violation" w.name
          (string_of_variant variant)
    | Some _ | None -> ());
    (variant, pct r.dyn.elided_execs r.dyn.total_execs)
  in
  { bench = w.name; elim = List.map elim variants }

let measure () : row list = List.map measure_one Workloads.Registry.table1

let render (rows : row list) : string =
  let body =
    List.map
      (fun r ->
        r.bench
        :: List.map
             (fun v -> Tablefmt.f1 (List.assoc v r.elim))
             variants)
      rows
  in
  Tablefmt.render
    ~header:("benchmark" :: List.map string_of_variant variants)
    ~align:[ Tablefmt.L; R; R; R; R; R ]
    body

let print () = print_endline (render (measure ()))
