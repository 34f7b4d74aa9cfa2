(** E1 — reproduction of the paper's Table 1 (dynamic analysis results).

    For each benchmark: total dynamic barrier executions, the percentage
    the analysis eliminates, the potentially-pre-null upper bound measured
    by the interpreter's instrumentation, the field/array store split, and
    the per-kind elimination rates.  The paper's values are printed
    underneath each measured row for side-by-side comparison; absolute
    totals differ (our workloads are synthetic and far smaller), the
    {e shape} is what must match. *)

type row = {
  name : string;
  dyn : Jrt.Interp.dyn_stats;
  paper : Workloads.Spec.paper_row option;
  analysis_seconds : float;
  inline_seconds : float;
}

let pct num den =
  if den = 0 then 0.0 else 100.0 *. float_of_int num /. float_of_int den

let measure ?(inline_limit = 100) (w : Workloads.Spec.t) : row =
  let cw = Exp.compile ~inline_limit w in
  let report = Exp.run ~gc:(Jrt.Runner.make_satb ()) cw in
  (match report.gc with
  | Some g when g.total_violations > 0 ->
      Fmt.failwith "%s: SATB invariant violated under analysis policy" w.name
  | Some _ | None -> ());
  {
    name = w.name;
    dyn = report.dyn;
    paper = w.paper_row;
    analysis_seconds = cw.compiled.analysis_seconds;
    inline_seconds = cw.compiled.inline_seconds;
  }

let rows ?inline_limit () : row list =
  List.map (measure ?inline_limit) Workloads.Registry.table1

let to_json (rows : row list) : Telemetry.json =
  Telemetry.List
    (List.map
       (fun r ->
         let d = r.dyn in
         Telemetry.Obj
           [
             ("benchmark", Str r.name);
             ("total_execs", Int d.total_execs);
             ("elided_execs", Int d.elided_execs);
             ("elim_pct", Float (pct d.elided_execs d.total_execs));
             ("field_execs", Int d.field_execs);
             ("field_elided", Int d.field_elided);
             ("array_execs", Int d.array_execs);
             ("array_elided", Int d.array_elided);
             ("static_execs", Int d.static_execs);
             ("analysis_seconds", Float r.analysis_seconds);
             ("inline_seconds", Float r.inline_seconds);
           ])
       rows)

let render (rows : row list) : string =
  let pct = Tablefmt.pct in
  let body =
    List.concat_map
      (fun r ->
        let d = r.dyn in
        let field_pct =
          (* the paper's split covers field vs array stores; our handful
             of static stores are excluded from the ratio *)
          let fa = d.field_execs + d.array_execs in
          if fa = 0 then 0
          else
            int_of_float
              (float_of_int d.field_execs /. float_of_int fa *. 100. +. 0.5)
        in
        let measured =
          [
            r.name;
            string_of_int d.total_execs;
            pct d.elided_execs d.total_execs;
            pct d.pot_pre_null_execs d.total_execs;
            Printf.sprintf "%d/%d" field_pct (100 - field_pct);
            pct d.field_elided d.field_execs;
            pct d.array_elided d.array_execs;
          ]
        in
        let paper =
          match r.paper with
          | None -> []
          | Some p ->
              [
                [
                  "  (paper)";
                  Printf.sprintf "%.1fM" p.p_total_millions;
                  Tablefmt.f1 p.p_elim_pct;
                  Tablefmt.f1 p.p_pot_pre_null_pct;
                  Printf.sprintf "%d/%d" p.p_field_pct (100 - p.p_field_pct);
                  Tablefmt.f1 p.p_field_elim_pct;
                  Tablefmt.f1 p.p_array_elim_pct;
                ];
              ]
        in
        measured :: paper)
      rows
  in
  Tablefmt.render
    ~header:
      [
        "benchmark";
        "total";
        "% elim";
        "% pot pre-null";
        "field/array";
        "field % elim";
        "array % elim";
      ]
    ~align:[ Tablefmt.L; R; R; R; R; R; R ]
    body
