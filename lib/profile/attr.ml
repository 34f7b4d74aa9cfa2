(** Per-site barrier attribution — see attr.mli. *)

module J = Telemetry

(* Bumped whenever the JSON layout changes incompatibly; {!of_json}
   refuses files written at any other version so the regression gate
   never silently compares mismatched layouts. *)
let schema_version = 2

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
          r_site = Jrt.Interp.site_id site;
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
          r_why = Lazy.force st.Jrt.Interp.st_verdict.Jrt.Interp.why;
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
  let timeline =
    Stats.timeline_of_summary ~steps:r.Jrt.Runner.steps r.Jrt.Runner.gc
  in
  let cycles, violations, pause_works =
    match r.Jrt.Runner.gc with
    | None -> (0, 0, [])
    | Some g ->
        ( g.Jrt.Runner.cycles,
          g.Jrt.Runner.total_violations,
          g.Jrt.Runner.final_pause_works )
  in
  {
    p_workload = workload;
    p_gc = gc;
    p_steps = r.Jrt.Runner.steps;
    p_cycles = cycles;
    p_violations = violations;
    p_sites = sites;
    p_totals = totals;
    p_pauses = Stats.dist_of pause_works;
    p_mmu = Stats.mmu_curve timeline;
    p_utilization = Stats.utilization timeline;
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
      ("schema_version", J.Int schema_version);
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

(* -- parsing back -- *)

let field (o : (string * J.json) list) (k : string) : (J.json, string) result =
  match List.assoc_opt k o with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing key %S" k)

let as_obj = function
  | J.Obj o -> Ok o
  | _ -> Error "expected an object"

let as_int k = function
  | J.Int i -> Ok i
  | _ -> Error (Printf.sprintf "key %S: expected an integer" k)

let as_float k = function
  | J.Float f -> Ok f
  | J.Int i -> Ok (float_of_int i)
  | _ -> Error (Printf.sprintf "key %S: expected a number" k)

let as_str k = function
  | J.Str s -> Ok s
  | _ -> Error (Printf.sprintf "key %S: expected a string" k)

let as_bool k = function
  | J.Bool b -> Ok b
  | _ -> Error (Printf.sprintf "key %S: expected a bool" k)

let ( let* ) = Result.bind

let int_field o k =
  let* v = field o k in
  as_int k v

let float_field o k =
  let* v = field o k in
  as_float k v

let str_field o k =
  let* v = field o k in
  as_str k v

let bool_field o k =
  let* v = field o k in
  as_bool k v

let rec map_result f = function
  | [] -> Ok []
  | x :: xs ->
      let* y = f x in
      let* ys = map_result f xs in
      Ok (y :: ys)

let site_of_json (j : J.json) : (site_row, string) result =
  let* o = as_obj j in
  let* r_barrier_units = int_field o "barrier_units" in
  let* r_elided = bool_field o "elided" in
  let* r_elided_execs = int_field o "elided_execs" in
  let* r_execs = int_field o "execs" in
  let* guards = field o "guards" in
  let* r_guards =
    match guards with
    | J.List gs -> map_result (as_str "guards") gs
    | _ -> Error "key \"guards\": expected a list"
  in
  let* r_del_elided = bool_field o "del_elided" in
  let* r_del_elided_execs = int_field o "del_elided_execs" in
  let* r_del_paid_execs = int_field o "del_paid_execs" in
  let* r_ins_elided = bool_field o "ins_elided" in
  let* r_ins_elided_execs = int_field o "ins_elided_execs" in
  let* r_ins_paid_execs = int_field o "ins_paid_execs" in
  let* r_kind = str_field o "kind" in
  let* r_paid_execs = int_field o "paid_execs" in
  let* r_revocations = int_field o "revocations" in
  let* r_site = str_field o "site" in
  let* r_why =
    match field o "why" with
    | Ok J.Null | Error _ -> Ok None
    | Ok (J.Str w) -> Ok (Some w)
    | Ok _ -> Error "key \"why\": expected a string or null"
  in
  Ok
    {
      r_site;
      r_kind;
      r_elided;
      r_execs;
      r_elided_execs;
      r_paid_execs;
      r_del_elided;
      r_ins_elided;
      r_del_elided_execs;
      r_del_paid_execs;
      r_ins_elided_execs;
      r_ins_paid_execs;
      r_barrier_units;
      r_revocations;
      r_guards;
      r_why;
    }

let of_json (j : J.json) : (t, string) result =
  let* o = as_obj j in
  let* () =
    match List.assoc_opt "schema_version" o with
    | None ->
        Error
          (Printf.sprintf
             "profile has no schema_version (predates v%d); regenerate it \
              with this build"
             schema_version)
    | Some v -> (
        let* v = as_int "schema_version" v in
        if v = schema_version then Ok ()
        else
          Error
            (Printf.sprintf
               "profile schema_version %d, but this build reads v%d; \
                regenerate the file"
               v schema_version))
  in
  let* p_cycles = int_field o "cycles" in
  let* p_gc = str_field o "gc" in
  let* mmu = field o "mmu" in
  let* p_mmu =
    match mmu with
    | J.List ms ->
        map_result
          (fun m ->
            let* mo = as_obj m in
            let* u = float_field mo "mmu" in
            let* w = int_field mo "window" in
            Ok (w, u))
          ms
    | _ -> Error "key \"mmu\": expected a list"
  in
  let* pauses = field o "pauses" in
  let* po = as_obj pauses in
  let* d_count = int_field po "count" in
  let* d_max = int_field po "max" in
  let* d_p50 = int_field po "p50" in
  let* d_p90 = int_field po "p90" in
  let* d_p99 = int_field po "p99" in
  let* d_total = int_field po "total" in
  let* sites = field o "sites" in
  let* p_sites =
    match sites with
    | J.List ss -> map_result site_of_json ss
    | _ -> Error "key \"sites\": expected a list"
  in
  let* p_steps = int_field o "steps" in
  let* totals = field o "totals" in
  let* t_o = as_obj totals in
  let* t_barrier_units = int_field t_o "barrier_units" in
  let* t_del_elided_execs = int_field t_o "del_elided_execs" in
  let* t_del_paid_execs = int_field t_o "del_paid_execs" in
  let* t_elided_execs = int_field t_o "elided_execs" in
  let* t_execs = int_field t_o "execs" in
  let* t_external_elided = int_field t_o "external_elided" in
  let* t_external_paid = int_field t_o "external_paid" in
  let* t_ins_elided_execs = int_field t_o "ins_elided_execs" in
  let* t_ins_paid_execs = int_field t_o "ins_paid_execs" in
  let* t_paid_execs = int_field t_o "paid_execs" in
  let* t_revocation_events = int_field t_o "revocation_events" in
  let* t_revoked_sites = int_field t_o "revoked_sites" in
  let* p_utilization = float_field o "utilization" in
  let* p_violations = int_field o "violations" in
  let* p_workload = str_field o "workload" in
  Ok
    {
      p_workload;
      p_gc;
      p_steps;
      p_cycles;
      p_violations;
      p_sites;
      p_totals =
        {
          t_execs;
          t_elided_execs;
          t_paid_execs;
          t_del_elided_execs;
          t_del_paid_execs;
          t_ins_elided_execs;
          t_ins_paid_execs;
          t_barrier_units;
          t_external_paid;
          t_external_elided;
          t_revocation_events;
          t_revoked_sites;
        };
      p_pauses = { Stats.d_count; d_total; d_p50; d_p90; d_p99; d_max };
      p_mmu;
      p_utilization;
    }

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

(* ---- baseline comparison ------------------------------------------------ *)

type diff = { df_lines : string list; df_regressions : string list }

let diff ?(max_elision_drop = 2.0) ?(max_pause_increase_pct = 25.0)
    ?(max_cost_increase_pct = 10.0) ~(baseline : t) (p : t) : diff =
  let lines = ref [] in
  let regressions = ref [] in
  let note fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt in
  let regress fmt =
    Printf.ksprintf
      (fun s ->
        lines := ("REGRESSION: " ^ s) :: !lines;
        regressions := s :: !regressions)
      fmt
  in
  let old_rate = elision_rate baseline and new_rate = elision_rate p in
  let drop = old_rate -. new_rate in
  if drop > max_elision_drop then
    regress "elision rate fell %.1f points (%.1f%% -> %.1f%%, allowed drop %.1f)"
      drop old_rate new_rate max_elision_drop
  else note "elision rate %.1f%% -> %.1f%%" old_rate new_rate;
  (* Per-half elision rates, gated independently when both profiles carry
     hybrid half data: a deletion-half drop can hide behind an unchanged
     both-halves rate and vice versa. *)
  if has_halves baseline && has_halves p then begin
    let half what old_r new_r =
      let d = old_r -. new_r in
      if d > max_elision_drop then
        regress "%s elision rate fell %.1f points (%.1f%% -> %.1f%%, \
                 allowed drop %.1f)"
          what d old_r new_r max_elision_drop
      else note "%s elision rate %.1f%% -> %.1f%%" what old_r new_r
    in
    half "deletion-half" (del_elision_rate baseline) (del_elision_rate p);
    half "insertion-half" (ins_elision_rate baseline) (ins_elision_rate p)
  end;
  let pause_check what old_v new_v =
    if new_v > old_v then begin
      let pct =
        100.0 *. float_of_int (new_v - old_v) /. float_of_int (max 1 old_v)
      in
      if pct > max_pause_increase_pct then
        regress "pause %s grew %.0f%% (%d -> %d, allowed %.0f%%)" what pct
          old_v new_v max_pause_increase_pct
      else note "pause %s %d -> %d (+%.0f%%)" what old_v new_v pct
    end
    else note "pause %s %d -> %d" what old_v new_v
  in
  pause_check "p99" baseline.p_pauses.Stats.d_p99 p.p_pauses.Stats.d_p99;
  pause_check "max" baseline.p_pauses.Stats.d_max p.p_pauses.Stats.d_max;
  let old_cost = units_per_kstep baseline and new_cost = units_per_kstep p in
  if new_cost > old_cost then begin
    let pct = 100.0 *. (new_cost -. old_cost) /. Float.max 1e-9 old_cost in
    if pct > max_cost_increase_pct then
      regress
        "barrier cost grew %.0f%% (%.2f -> %.2f units/kstep, allowed %.0f%%)"
        pct old_cost new_cost max_cost_increase_pct
    else note "barrier cost %.2f -> %.2f units/kstep" old_cost new_cost
  end
  else note "barrier cost %.2f -> %.2f units/kstep" old_cost new_cost;
  if p.p_violations > baseline.p_violations then
    regress "snapshot violations %d -> %d" baseline.p_violations p.p_violations;
  (* Newly-paying sites: elided in the baseline, kept (or revoked) now. *)
  let baseline_elided =
    List.filter_map
      (fun s -> if s.r_elided then Some s.r_site else None)
      baseline.p_sites
  in
  List.iter
    (fun s ->
      if (not s.r_elided) && List.mem s.r_site baseline_elided then
        note "site %s no longer elided (%d paid execs)" s.r_site s.r_paid_execs)
    p.p_sites;
  { df_lines = List.rev !lines; df_regressions = List.rev !regressions }

let regressed (d : diff) : bool = d.df_regressions <> []

let render_diff (d : diff) : string =
  String.concat "" (List.map (fun l -> l ^ "\n") d.df_lines)
