(** Per-site barrier attribution — see attr.mli. *)

module J = Telemetry

type site_row = {
  r_site : string;
  r_kind : string;
  r_elided : bool;
  r_execs : int;
  r_elided_execs : int;
  r_paid_execs : int;
  r_del_elided : bool;
  r_ins_elided : bool;
  r_del_elided_execs : int;
  r_del_paid_execs : int;
  r_ins_elided_execs : int;
  r_ins_paid_execs : int;
  r_barrier_units : int;
  r_revocations : int;
  r_guards : string list;
  r_why : string option;
}

type totals = {
  t_execs : int;
  t_elided_execs : int;
  t_paid_execs : int;
  t_del_elided_execs : int;
  t_del_paid_execs : int;
  t_ins_elided_execs : int;
  t_ins_paid_execs : int;
  t_barrier_units : int;
  t_external_paid : int;
  t_external_elided : int;
  t_revocation_events : int;
  t_revoked_sites : int;
}

type t = {
  p_workload : string;
  p_gc : string;
  p_steps : int;
  p_cycles : int;
  p_violations : int;
  p_sites : site_row list;
  p_totals : totals;
  p_pauses : Stats.dist;
  p_mmu : (int * float) list;
  p_utilization : float;
}

let kind_string = function
  | Jir.Types.Field_store -> "field"
  | Jir.Types.Array_store -> "array"
  | Jir.Types.Static_store -> "static"

let of_report ~workload ~gc (r : Jrt.Runner.report) : t =
  let m = r.Jrt.Runner.machine in
  let sites =
    Hashtbl.fold
      (fun site (st : Jrt.Interp.site_stats) acc ->
        {
          r_site = Jir.Types.string_of_site site;
          r_kind = kind_string st.Jrt.Interp.st_kind;
          r_elided = Jrt.Interp.elided m st;
          r_execs = st.Jrt.Interp.execs;
          r_elided_execs = st.Jrt.Interp.elided_execs;
          r_paid_execs = st.Jrt.Interp.paid_execs;
          r_del_elided = st.Jrt.Interp.st_del_elided;
          r_ins_elided = st.Jrt.Interp.st_ins_elided;
          r_del_elided_execs = st.Jrt.Interp.del_elided_execs;
          r_del_paid_execs = st.Jrt.Interp.del_paid_execs;
          r_ins_elided_execs = st.Jrt.Interp.ins_elided_execs;
          r_ins_paid_execs = st.Jrt.Interp.ins_paid_execs;
          r_barrier_units = st.Jrt.Interp.barrier_units;
          r_revocations = st.Jrt.Interp.revocations;
          r_guards =
            List.map Jir.Types.string_of_assumption (Jrt.Interp.guards m st);
          r_why = Lazy.force st.Jrt.Interp.st_verdict.Jir.Types.del_why;
        }
        :: acc)
      m.Jrt.Interp.stats []
  in
  let sites =
    List.sort (fun a b -> String.compare a.r_site b.r_site) sites
  in
  let sum f = List.fold_left (fun a s -> a + f s) 0 sites in
  let totals =
    {
      t_execs = sum (fun s -> s.r_execs);
      t_elided_execs = sum (fun s -> s.r_elided_execs);
      t_paid_execs = sum (fun s -> s.r_paid_execs);
      t_del_elided_execs = sum (fun s -> s.r_del_elided_execs);
      t_del_paid_execs = sum (fun s -> s.r_del_paid_execs);
      t_ins_elided_execs = sum (fun s -> s.r_ins_elided_execs);
      t_ins_paid_execs = sum (fun s -> s.r_ins_paid_execs);
      t_barrier_units = sum (fun s -> s.r_barrier_units);
      t_external_paid = m.Jrt.Interp.external_paid_execs;
      t_external_elided = m.Jrt.Interp.external_elided_execs;
      t_revocation_events = m.Jrt.Interp.revocation_events;
      t_revoked_sites = m.Jrt.Interp.revoked_sites;
    }
  in
  let pauses = Stats.of_report r in
  let cycles, violations =
    match r.Jrt.Runner.gc with
    | None -> (0, 0)
    | Some g -> (g.Jrt.Runner.cycles, g.Jrt.Runner.total_violations)
  in
  {
    p_workload = workload;
    p_gc = gc;
    p_steps = r.Jrt.Runner.steps;
    p_cycles = cycles;
    p_violations = violations;
    p_sites = sites;
    p_totals = totals;
    p_pauses = pauses.Stats.dist;
    p_mmu = Stats.mmu_curve pauses.Stats.timeline;
    p_utilization = pauses.Stats.utilization;
  }

let elision_rate (p : t) : float =
  let elided = p.p_totals.t_elided_execs + p.p_totals.t_external_elided in
  let paid = p.p_totals.t_paid_execs + p.p_totals.t_external_paid in
  let all = elided + paid in
  if all = 0 then 0.0 else 100.0 *. float_of_int elided /. float_of_int all

let units_per_kstep (p : t) : float =
  if p.p_steps = 0 then 0.0
  else 1000.0 *. float_of_int p.p_totals.t_barrier_units /. float_of_int p.p_steps

let has_halves (p : t) : bool =
  p.p_totals.t_del_elided_execs + p.p_totals.t_del_paid_execs
  + p.p_totals.t_ins_elided_execs + p.p_totals.t_ins_paid_execs
  > 0

let half_rate ~elided ~paid : float =
  if elided + paid = 0 then 0.0
  else 100.0 *. float_of_int elided /. float_of_int (elided + paid)

let del_elision_rate (p : t) : float =
  half_rate ~elided:p.p_totals.t_del_elided_execs
    ~paid:p.p_totals.t_del_paid_execs

let ins_elision_rate (p : t) : float =
  half_rate ~elided:p.p_totals.t_ins_elided_execs
    ~paid:p.p_totals.t_ins_paid_execs

let reconciles (p : t) (r : Jrt.Runner.report) : (unit, string) result =
  let m = r.Jrt.Runner.machine in
  let checks =
    [
      ( "paid executions",
        p.p_totals.t_paid_execs + p.p_totals.t_external_paid,
        m.Jrt.Interp.barriers_executed );
      ( "elided executions",
        p.p_totals.t_elided_execs + p.p_totals.t_external_elided,
        m.Jrt.Interp.elided_barrier_execs );
      ("barrier units", p.p_totals.t_barrier_units, m.Jrt.Interp.barrier_units);
      ( "total executions",
        p.p_totals.t_execs,
        p.p_totals.t_paid_execs + p.p_totals.t_elided_execs );
      ("dynamic stores", p.p_totals.t_execs, r.Jrt.Runner.dyn.Jrt.Interp.total_execs);
    ]
  in
  (* Under the hybrid flavor every store runs each half exactly once
     (elided or paid), so the per-half sums must also cover every
     execution. *)
  let checks =
    if m.Jrt.Interp.cfg.Jrt.Interp.barrier_flavor = `Hybrid then
      checks
      @ [
          ( "deletion-half executions",
            p.p_totals.t_del_paid_execs + p.p_totals.t_del_elided_execs,
            p.p_totals.t_execs );
          ( "insertion-half executions",
            p.p_totals.t_ins_paid_execs + p.p_totals.t_ins_elided_execs,
            p.p_totals.t_execs );
        ]
    else checks
  in
  let rec go = function
    | [] -> Ok ()
    | (what, got, want) :: rest ->
        if got <> want then
          Error (Printf.sprintf "%s: profile says %d, counters say %d" what got want)
        else go rest
  in
  go checks

(* Ranking is a total order: units desc, paid execs desc, then site id
   asc as the deciding key.  Site ids are unique within a profile, so
   the result never depends on the Hashtbl fold order the rows were
   born in — `render` and `profile --json` are byte-stable across runs
   with equal counts. *)
let hot ?(top = 10) (p : t) : site_row list =
  let ranked =
    List.sort
      (fun a b ->
        match compare b.r_barrier_units a.r_barrier_units with
        | 0 -> (
            match compare b.r_paid_execs a.r_paid_execs with
            | 0 -> String.compare a.r_site b.r_site
            | c -> c)
        | c -> c)
      p.p_sites
  in
  List.filteri (fun i _ -> i < top) ranked

(* ---- JSON --------------------------------------------------------------- *)

let round6 f = Float.round (f *. 1e6) /. 1e6

let site_to_json (s : site_row) : J.json =
  J.Obj
    [
      ("barrier_units", J.Int s.r_barrier_units);
      ("del_elided", J.Bool s.r_del_elided);
      ("del_elided_execs", J.Int s.r_del_elided_execs);
      ("del_paid_execs", J.Int s.r_del_paid_execs);
      ("elided", J.Bool s.r_elided);
      ("elided_execs", J.Int s.r_elided_execs);
      ("execs", J.Int s.r_execs);
      ("guards", J.List (List.map (fun g -> J.Str g) s.r_guards));
      ("ins_elided", J.Bool s.r_ins_elided);
      ("ins_elided_execs", J.Int s.r_ins_elided_execs);
      ("ins_paid_execs", J.Int s.r_ins_paid_execs);
      ("kind", J.Str s.r_kind);
      ("paid_execs", J.Int s.r_paid_execs);
      ("revocations", J.Int s.r_revocations);
      ("site", J.Str s.r_site);
      ("why", match s.r_why with None -> J.Null | Some w -> J.Str w);
    ]

let summary_row ~(ids : (string * J.json) list) (p : t) : J.json =
  let halves =
    if has_halves p then
      [
        ("del_elision_pct", J.Float (del_elision_rate p));
        ("ins_elision_pct", J.Float (ins_elision_rate p));
      ]
    else []
  in
  J.Obj
    (ids
    @ (("elision_pct", J.Float (elision_rate p)) :: halves)
    @ [
        ("barrier_units", J.Int p.p_totals.t_barrier_units);
        ("units_per_kstep", J.Float (units_per_kstep p));
        ("pause_p99", J.Int p.p_pauses.Stats.d_p99);
        ("pause_max", J.Int p.p_pauses.Stats.d_max);
        ("utilization", J.Float p.p_utilization);
        ("violations", J.Int p.p_violations);
      ])

let to_json (p : t) : J.json =
  J.Obj
    [
      ("cycles", J.Int p.p_cycles);
      ("gc", J.Str p.p_gc);
      ( "mmu",
        J.List
          (List.map
             (fun (w, u) ->
               J.Obj [ ("mmu", J.Float (round6 u)); ("window", J.Int w) ])
             p.p_mmu) );
      ( "pauses",
        J.Obj
          [
            ("count", J.Int p.p_pauses.Stats.d_count);
            ("max", J.Int p.p_pauses.Stats.d_max);
            ("p50", J.Int p.p_pauses.Stats.d_p50);
            ("p90", J.Int p.p_pauses.Stats.d_p90);
            ("p99", J.Int p.p_pauses.Stats.d_p99);
            ("total", J.Int p.p_pauses.Stats.d_total);
          ] );
      ( "profile",
        J.List
          [
            summary_row
              ~ids:[ ("workload", J.Str p.p_workload); ("gc", J.Str p.p_gc) ]
              p;
          ] );
      ("schema_version", J.Int Gate.bench_schema_version);
      ("sites", J.List (List.map site_to_json p.p_sites));
      ("steps", J.Int p.p_steps);
      ( "totals",
        J.Obj
          [
            ("barrier_units", J.Int p.p_totals.t_barrier_units);
            ("del_elided_execs", J.Int p.p_totals.t_del_elided_execs);
            ("del_paid_execs", J.Int p.p_totals.t_del_paid_execs);
            ("elided_execs", J.Int p.p_totals.t_elided_execs);
            ("execs", J.Int p.p_totals.t_execs);
            ("external_elided", J.Int p.p_totals.t_external_elided);
            ("external_paid", J.Int p.p_totals.t_external_paid);
            ("ins_elided_execs", J.Int p.p_totals.t_ins_elided_execs);
            ("ins_paid_execs", J.Int p.p_totals.t_ins_paid_execs);
            ("paid_execs", J.Int p.p_totals.t_paid_execs);
            ("revocation_events", J.Int p.p_totals.t_revocation_events);
            ("revoked_sites", J.Int p.p_totals.t_revoked_sites);
          ] );
      ("utilization", J.Float (round6 p.p_utilization));
      ("violations", J.Int p.p_violations);
      ("workload", J.Str p.p_workload);
    ]

(* ---- rendering ---------------------------------------------------------- *)

let render ?(top = 10) (p : t) : string =
  let b = Buffer.create 2048 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "profile: %s  (gc=%s)\n" p.p_workload p.p_gc;
  pf "  steps %d  cycles %d  violations %d\n" p.p_steps p.p_cycles
    p.p_violations;
  pf "  stores %d  elided %d (%.1f%%)  paid %d  barrier units %d (%.2f/kstep)\n"
    p.p_totals.t_execs p.p_totals.t_elided_execs (elision_rate p)
    p.p_totals.t_paid_execs p.p_totals.t_barrier_units (units_per_kstep p);
  if has_halves p then
    pf
      "  deletion half: %d elided, %d paid (%.1f%%)  insertion half: %d \
       elided, %d paid (%.1f%%)\n"
      p.p_totals.t_del_elided_execs p.p_totals.t_del_paid_execs
      (del_elision_rate p) p.p_totals.t_ins_elided_execs
      p.p_totals.t_ins_paid_execs (ins_elision_rate p);
  if p.p_totals.t_external_paid + p.p_totals.t_external_elided > 0 then
    pf "  external stores: %d paid, %d elided (chaos-injected, siteless)\n"
      p.p_totals.t_external_paid p.p_totals.t_external_elided;
  if p.p_totals.t_revocation_events > 0 then
    pf "  revocations: %d events, %d sites re-barriered\n"
      p.p_totals.t_revocation_events p.p_totals.t_revoked_sites;
  let d = p.p_pauses in
  pf "  pauses %d  p50=%d p90=%d p99=%d max=%d  (total work %d)\n" d.Stats.d_count
    d.Stats.d_p50 d.Stats.d_p90 d.Stats.d_p99 d.Stats.d_max d.Stats.d_total;
  pf "  utilization %.4f\n" p.p_utilization;
  if p.p_mmu <> [] then begin
    pf "  MMU:";
    List.iter (fun (w, u) -> pf "  %d:%.3f" w u) p.p_mmu;
    pf "\n"
  end;
  let sites = hot ~top p in
  if sites <> [] then begin
    let width =
      List.fold_left (fun a s -> max a (String.length s.r_site)) 4 sites
    in
    pf "\n  %-*s %-6s %8s %8s %8s %8s %5s  guards\n" width "site" "kind"
      "execs" "elided" "paid" "units" "rvk";
    List.iter
      (fun s ->
        let marker =
          let half_data =
            s.r_del_elided_execs + s.r_del_paid_execs + s.r_ins_elided_execs
            + s.r_ins_paid_execs
            > 0
          in
          if half_data then
            match (s.r_del_elided, s.r_ins_elided) with
            | true, true -> ""
            | true, false -> "  [del-half]"
            | false, true -> "  [ins-half]"
            | false, false -> "  [kept]"
          else if s.r_elided then ""
          else "  [kept]"
        in
        pf "  %-*s %-6s %8d %8d %8d %8d %5d  %s%s\n" width s.r_site s.r_kind
          s.r_execs s.r_elided_execs s.r_paid_execs s.r_barrier_units
          s.r_revocations
          (if s.r_guards = [] then "-" else String.concat "," s.r_guards)
          marker;
        match s.r_why with
        | Some w -> pf "  %-*s   `- %s\n" width "" w
        | None -> ())
      sites
  end;
  Buffer.contents b
