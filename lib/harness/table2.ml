(** E2 — reproduction of the paper's Table 2 (jbb end-to-end barrier
    cost).

    Three barrier modes (§4.5):
    - {b no-barrier}: all SATB barriers compiled out;
    - {b always-log}: the marking-in-progress check is elided and non-null
      pre-values always logged, simulating fully incrementalized marking;
      elimination disabled;
    - {b always-log-elim}: like always-log with analysis-directed
      elimination enabled.

    Throughput is work per cost unit under the RISC cost model
    ({!Jrt.Barrier_cost}); we report it relative to no-barrier, as the
    paper does (its absolute column is SPECjbb throughput). *)

type row = { mode : string; cost_units : int; relative : float }

(** Paper's Table 2 relative-to-no-barrier column. *)
let paper = [ ("no-barrier", 1.000); ("always-log", 0.975); ("always-log-elim", 0.984) ]

let measure ?(workload = Workloads.Jbb.t) () : row list =
  let run ~satb_mode ~use_policy =
    let cw = Exp.compile workload in
    let r = Exp.run ~satb_mode ~use_policy cw in
    r.cost_units
  in
  let no_barrier =
    run ~satb_mode:Jrt.Barrier_cost.No_barrier ~use_policy:false
  in
  let always_log =
    run ~satb_mode:Jrt.Barrier_cost.Always_log ~use_policy:false
  in
  let always_log_elim =
    run ~satb_mode:Jrt.Barrier_cost.Always_log ~use_policy:true
  in
  let rel c = float_of_int no_barrier /. float_of_int c in
  [
    { mode = "no-barrier"; cost_units = no_barrier; relative = rel no_barrier };
    { mode = "always-log"; cost_units = always_log; relative = rel always_log };
    {
      mode = "always-log-elim";
      cost_units = always_log_elim;
      relative = rel always_log_elim;
    };
  ]

let to_json (rows : row list) : Telemetry.json =
  Telemetry.List
    (List.map
       (fun r ->
         Telemetry.Obj
           [
             ("mode", Str r.mode);
             ("cost_units", Int r.cost_units);
             ("relative", Float r.relative);
           ])
       rows)

let render (rows : row list) : string =
  let body =
    List.map
      (fun r ->
        let paper_rel =
          match List.assoc_opt r.mode paper with
          | Some v -> Printf.sprintf "%.3f" v
          | None -> "-"
        in
        [
          r.mode;
          string_of_int r.cost_units;
          Printf.sprintf "%.3f" r.relative;
          paper_rel;
        ])
      rows
  in
  Tablefmt.render
    ~header:[ "barrier mode"; "cost units"; "relative"; "paper relative" ]
    ~align:[ Tablefmt.L; R; R; R ]
    body
