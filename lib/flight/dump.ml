(** A captured ring as the readers see it: the dump's type and parser,
    its Chrome export, and the timeline reconstruction behind `satbelim
    timeline`.  Re-exported by {!Flight}. *)

open Event
module J = Telemetry

(** One barrier site's elision state at dump time. *)
type site_state = {
  fs_site : string;
  fs_kind : string;  (** putfield / aastore / putstatic *)
  fs_state : string;  (** elided / kept / revoked / del-elided / ... *)
  fs_execs : int;
  fs_paid : int;
  fs_elided_execs : int;
  fs_revocations : int;
  fs_guards : string list;
}

type dump = {
  d_reason : string;
  d_step : int;  (** step source at capture time *)
  d_capacity : int;
  d_recorded : int;
  d_meta : (string * string) list;
  d_events : entry list;
  d_sites : site_state list;
  d_anomalies : (string * int) list;
  d_pending_census : (int * int * int) option;
      (** [(cycle, live, live_units)] heap state at capture time, present
          only in dumps written under a heap observer *)
}

(** Read a version-3 dump back. *)
let parse_dump (j : J.json) : (dump, string) result =
  let exception Bad of string in
  let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt in
  let obj what = function J.Obj kvs -> kvs | _ -> fail "%s: expected an object" what in
  let field kvs k =
    match List.assoc_opt k kvs with Some v -> v | None -> fail "missing field %S" k
  in
  let int kvs k =
    match field kvs k with J.Int n -> n | _ -> fail "%S: expected an int" k
  in
  let string = function J.Str s -> s | _ -> fail "expected a string" in
  let str kvs k = string (field kvs k) in
  let list kvs k =
    match field kvs k with J.List l -> l | _ -> fail "%S: expected a list" k
  in
  let site v =
    let kvs = obj "site" v in
    {
      fs_site = str kvs "site"; fs_kind = str kvs "kind"; fs_state = str kvs "state";
      fs_execs = int kvs "execs"; fs_paid = int kvs "paid";
      fs_elided_execs = int kvs "elided"; fs_revocations = int kvs "revocations";
      fs_guards = List.map string (list kvs "guards");
    }
  in
  let event v = match of_json v with Ok e -> e | Error m -> raise (Bad m) in
  let anomaly v =
    let kvs = obj "anomaly" v in
    (str kvs "detector", int kvs "at_step")
  in
  try
    let body = obj "flight" (field (obj "dump" j) "flight") in
    let version = int body "version" in
    if version <> 3 then fail "unsupported dump version %d" version;
    Ok
      {
        d_reason = str body "reason";
        d_step = int body "at_step";
        d_capacity = int body "capacity";
        d_recorded = int body "recorded";
        d_meta = List.map (fun (k, v) -> (k, string v)) (obj "meta" (field body "meta"));
        d_events = List.map event (list body "events");
        d_sites = List.map site (list body "sites");
        d_anomalies = List.map anomaly (list body "anomalies");
        (* only dumps written under a heap observer carry it *)
        d_pending_census =
          Option.map
            (fun pc ->
              let kvs = obj "pending_census" pc in
              (int kvs "cycle", int kvs "live", int kvs "live_units"))
            (List.assoc_opt "pending_census" body);
      }
  with Bad m -> Error m

(** The dump's events as a Chrome trace, rendered by {!Event.render} on
    the mutator-step axis (1 step = 1 "us"). *)
let chrome_of_dump (d : dump) : J.json =
  J.chrome_of_events
    (List.mapi
       (fun i e ->
         let kind, fs = render e in
         let ts = float_of_int e.step /. 1_000_000. in
         { J.ev_seq = i; ev_ts = ts; ev_kind = kind; ev_fields = fs })
       d.d_events)

(* ---- timeline reconstruction ------------------------------------------- *)

type cycle = {
  cy_n : int;  (** 0-based, as recorded by the collector *)
  cy_collector : string;
  cy_start : int;  (** mutator step of mark start *)
  cy_end : int option;  (** None = still marking at capture *)
  cy_pause : int option;  (** final pause work *)
  cy_violations : int;
  cy_assists : int;
  cy_revoked_sites : int;
  cy_faults : int;
  cy_soft_enters : int;
  cy_retunes : int;
  cy_census : (int * int) option;
}

type site_life = {
  sl_site : string;
  sl_kind : string;
  sl_state : string;
  sl_history : string;  (** "revoked@2980 (single-mutator)" *)
}

type timeline = {
  tl_cycles : cycle list;
  tl_sites : site_life list;  (** sorted by site id *)
  tl_anomalies : (string * int) list;
  tl_hard_stop : int option;  (** step of the hard-limit abort *)
  tl_dropped : int;  (** events lost to ring wrap-around *)
}

let timeline_of (d : dump) : timeline =
  (* Fold the event stream into cycles.  Idle-period events (assists,
     revocations, faults between cycles) are attributed to the cycle
     that follows them — they are typically what provokes it. *)
  let cycles = ref [] in
  let current = ref None in
  let assists = ref 0 in
  let revoked = ref 0 in
  let faults = ref 0 in
  let soft = ref 0 in
  let retunes = ref 0 in
  let hard = ref None in
  let take r =
    let v = !r in
    r := 0;
    v
  in
  List.iter
    (fun e ->
      match e.ev with
      | Cycle_start { collector; cycle; _ } ->
          current :=
            Some
              {
                cy_n = cycle;
                cy_collector = collector;
                cy_start = e.step;
                cy_end = None;
                cy_pause = None;
                cy_violations = 0;
                cy_assists = take assists;
                cy_revoked_sites = take revoked;
                cy_faults = take faults;
                cy_soft_enters = take soft;
                cy_retunes = take retunes;
                cy_census = None;
              }
      | Cycle_finish { collector; cycle; violations; _ } ->
          (match !current with
          | Some cy ->
              cycles :=
                {
                  cy with
                  cy_end = Some e.step;
                  cy_violations = violations;
                  cy_assists = cy.cy_assists + take assists;
                  cy_revoked_sites = cy.cy_revoked_sites + take revoked;
                  cy_faults = cy.cy_faults + take faults;
                  cy_soft_enters = cy.cy_soft_enters + take soft;
                  cy_retunes = cy.cy_retunes + take retunes;
                }
                :: !cycles
          | None ->
              (* start fell off the ring: synthesize a truncated cycle *)
              cycles :=
                {
                  cy_n = cycle;
                  cy_collector = collector;
                  cy_start = -1;
                  cy_end = Some e.step;
                  cy_pause = None;
                  cy_violations = violations;
                  cy_assists = take assists;
                  cy_revoked_sites = take revoked;
                  cy_faults = take faults;
                  cy_soft_enters = take soft;
                  cy_retunes = take retunes;
                  cy_census = None;
                }
                :: !cycles);
          current := None
      | Pause { work; _ } -> (
          (* recorded just after the collector's gc.cycle.finish *)
          match !cycles with
          | cy :: rest when cy.cy_pause = None ->
              cycles := { cy with cy_pause = Some work } :: rest
          | _ -> ())
      | Census { heap_units; float; _ } -> (
          (* recorded by the heap observer right after the pause *)
          match !cycles with
          | cy :: rest when cy.cy_census = None ->
              let fl = match float with Some f -> f.float_units | None -> 0 in
              cycles := { cy with cy_census = Some (heap_units, fl) } :: rest
          | _ -> ())
      | Assist -> incr assists
      | Revoke_site _ -> incr revoked
      | Chaos_fault _ -> incr faults
      | Degraded _ -> incr soft
      | Retune _ -> incr retunes
      | Hard_stop _ -> hard := Some e.step
      | Gc_restart _ | Gc_degraded _ | Trigger _ | Recovered _
      | Revoke_request _ | Revoke_apply _ | Runtime_degraded _ | Anomaly _ ->
          ())
    d.d_events;
  (* a cycle still marking at capture time *)
  let open_cycle =
    match !current with
    | Some cy ->
        [
          {
            cy with
            cy_assists = cy.cy_assists + !assists;
            cy_revoked_sites = cy.cy_revoked_sites + !revoked;
            cy_faults = cy.cy_faults + !faults;
            cy_soft_enters = cy.cy_soft_enters + !soft;
            cy_retunes = cy.cy_retunes + !retunes;
          };
        ]
    | None -> []
  in
  (* per-site history: revocations with their guard provenance, in
     stream order *)
  let hist : (string, string list) Hashtbl.t = Hashtbl.create 16 in
  let push site entry =
    let prev = Option.value (Hashtbl.find_opt hist site) ~default:[] in
    Hashtbl.replace hist site (entry :: prev)
  in
  List.iter
    (fun e ->
      match e.ev with
      | Revoke_site { site; guard; half; _ } ->
          let half =
            match half with Full -> "" | Del -> " del-half" | Ins -> " ins-half"
          in
          push site (Printf.sprintf "revoked@%d (%s%s)" e.step guard half)
      | _ -> ())
    d.d_events;
  let sites =
    List.map
      (fun s ->
        {
          sl_site = s.fs_site;
          sl_kind = s.fs_kind;
          sl_state = s.fs_state;
          sl_history =
            (match Hashtbl.find_opt hist s.fs_site with
            | Some entries -> String.concat " -> " (List.rev entries)
            | None -> "-");
        })
      d.d_sites
  in
  {
    tl_cycles = List.rev !cycles @ open_cycle;
    tl_sites = sites;
    tl_anomalies = d.d_anomalies;
    tl_hard_stop = !hard;
    tl_dropped = max 0 (d.d_recorded - d.d_capacity);
  }

(* ---- rendering --------------------------------------------------------- *)

(** Fixed-format aligned table: header + rows, two-space gutters, columns
    sized to content, left-aligned (numbers are small here and alignment
    stability matters more than typography — this is a golden surface,
    shared with the heap observatory's reports). *)
let render_table (header : string list) (rows : string list list) : string =
  let all = header :: rows in
  let ncols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let widths = Array.make (max 1 ncols) 0 in
  List.iter
    (List.iteri (fun i c -> widths.(i) <- max widths.(i) (String.length c)))
    all;
  let buf = Buffer.create 256 in
  let line r =
    List.iteri
      (fun i c ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf c;
        if i < List.length r - 1 then
          Buffer.add_string buf (String.make (widths.(i) - String.length c) ' '))
      r;
    Buffer.add_char buf '\n'
  in
  line header;
  line (List.init ncols (fun i -> String.make widths.(i) '-'));
  List.iter line rows;
  Buffer.contents buf

(** Deterministic ASCII rendering (header, per-cycle table, per-site
    lifecycle table, anomalies) — the `satbelim timeline` output and the
    golden-test surface. *)
let render_timeline (d : dump) : string =
  let cycle_notes (cy : cycle) : string =
    let notes = ref [] in
    if cy.cy_start < 0 then notes := "truncated" :: !notes;
    if cy.cy_end = None then notes := "in-flight" :: !notes;
    if cy.cy_soft_enters > 0 then notes := "soft-pressure" :: !notes;
    if cy.cy_violations > 0 then notes := "VIOLATIONS" :: !notes;
    String.concat ";" (List.rev !notes)
  in
  let tl = timeline_of d in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "flight recorder: reason=%s, captured at step %d\n"
       d.d_reason d.d_step);
  Buffer.add_string buf
    (Printf.sprintf "events: %d recorded, %d in ring (capacity %d%s)\n"
       d.d_recorded
       (List.length d.d_events)
       d.d_capacity
       (if tl.tl_dropped > 0 then
          Printf.sprintf ", %d oldest dropped" tl.tl_dropped
        else ""));
  if d.d_meta <> [] then
    Buffer.add_string buf
      (String.concat " "
         (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) d.d_meta)
      ^ "\n");
  Buffer.add_string buf "\nGC cycles:\n";
  (match tl.tl_cycles with
  | [] -> Buffer.add_string buf "  (no marking cycle in the recorded window)\n"
  | cycles ->
      (* census columns appear only when a heap observer recorded census
         events, so timelines of ordinary dumps stay byte-identical *)
      let with_census = List.exists (fun cy -> cy.cy_census <> None) cycles in
      let census_cells cy =
        if not with_census then []
        else
          match cy.cy_census with
          | None -> [ "-"; "-" ]
          | Some (live, fl) ->
              [
                string_of_int live;
                (if live = 0 then "0.0"
                 else
                   Printf.sprintf "%.1f"
                     (100.0 *. float_of_int fl /. float_of_int live));
              ]
      in
      Buffer.add_string buf
        (render_table
           ([ "cycle"; "collector"; "start"; "end"; "pause"; "assists";
              "revoked"; "faults" ]
           @ (if with_census then [ "live_u"; "float%" ] else [])
           @ [ "notes" ])
           (List.map
              (fun cy ->
                [
                  string_of_int cy.cy_n;
                  cy.cy_collector;
                  (if cy.cy_start < 0 then "?" else string_of_int cy.cy_start);
                  (match cy.cy_end with
                  | Some s -> string_of_int s
                  | None -> "-");
                  (match cy.cy_pause with
                  | Some w -> string_of_int w
                  | None -> "-");
                  string_of_int cy.cy_assists;
                  string_of_int cy.cy_revoked_sites;
                  string_of_int cy.cy_faults;
                ]
                @ census_cells cy
                @ [ cycle_notes cy ])
              cycles)));
  (match d.d_pending_census with
  | Some (cycle, live, units) ->
      Buffer.add_string buf
        (Printf.sprintf
           "pending census at capture: cycle %d, %d live (%d units)\n" cycle
           live units)
  | None -> ());
  (match tl.tl_hard_stop with
  | Some step ->
      Buffer.add_string buf (Printf.sprintf "hard stop at step %d\n" step)
  | None -> ());
  Buffer.add_string buf "\nsite elision lifecycle:\n";
  (match tl.tl_sites with
  | [] -> Buffer.add_string buf "  (no barrier sites recorded)\n"
  | sites ->
      Buffer.add_string buf
        (render_table
           [ "site"; "kind"; "state"; "execs"; "elided"; "history" ]
           (List.map
              (fun s ->
                let snap =
                  List.find_opt (fun x -> x.fs_site = s.sl_site) d.d_sites
                in
                let execs, elided =
                  match snap with
                  | Some x -> (x.fs_execs, x.fs_elided_execs)
                  | None -> (0, 0)
                in
                [
                  s.sl_site;
                  s.sl_kind;
                  s.sl_state;
                  string_of_int execs;
                  string_of_int elided;
                  s.sl_history;
                ])
              sites)));
  Buffer.add_string buf "\nanomalies:";
  (match tl.tl_anomalies with
  | [] -> Buffer.add_string buf " none\n"
  | l ->
      Buffer.add_char buf '\n';
      List.iter
        (fun (name, step) ->
          Buffer.add_string buf (Printf.sprintf "  %s at step %d\n" name step))
        l);
  Buffer.contents buf
