(** The runtime's event taxonomy: one constructor per kind, and the one
    schema that renders an event as its kind name and fields (and reads
    it back).  Re-exported by {!Flight}; DESIGN §6 tabulates each kind's
    fields and recorder. *)

module J = Telemetry

(** Which half of a hybrid barrier a revocation flipped ([Full] for a
    whole barrier, and for a hybrid site whose halves flipped together). *)
type half = Full | Del | Ins

(** The clock a chaos fault fired on. *)
type fault_at = At_instr of int | At_alloc of int

(** The policy-specific counters of a finished marking cycle. *)
type log_counts =
  | Satb_log of { logged : int; restarts : int }
  | Retrace_log of {
      logged : int;
      retraces : int;
      budget_overflows : int;
      degraded : bool;
      repair_enqueues : int;
    }
  | Card_log of { dirty_cards : int; rescan_rounds : int }
  | Shade_log of { del_shades : int; ins_shades : int; stack_scans : int; rescans : int }

(** A full census fold, to reconcile against the heap's own counters. *)
type census_fold = { census_live : int; census_units : int; sites : int }

(** A cycle's barrier float (survivors the exact oracle cannot reach). *)
type census_float = {
  float_objs : int;
  float_units : int;
  by_origin : (string * int) list;  (** float units per mark origin *)
  by_verdict : (string * int) list;  (** float objects per verdict class *)
}

type event =
  | Cycle_start of { collector : string; cycle : int; snapshot_size : int option }
      (** [snapshot_size] only under start-snapshot policies *)
  | Cycle_finish of {
      collector : string;
      cycle : int;
      marked : int;
      final_pause_work : int;
      swept : int;
      violations : int;
      log : log_counts;
    }
  | Gc_restart of { collector : string; cycle : int; snapshot_size : int option }
  | Gc_degraded of { collector : string; cycle : int; enqueued : int; budget : int }
  | Pause of { collector : string; at_step : int; work : int }
  | Assist  (** one degraded-mode allocation assist *)
  | Trigger of {
      collector : string;
      mode : string;
      live_units : int;
      trigger_units : int;
      degraded : bool;
    }
  | Degraded of { collector : string; live_units : int; soft_limit : int }
  | Recovered of { collector : string; live_units : int; soft_limit : int }
  | Retune of {
      collector : string;
      goal : float;
      p99 : int;
      mmu_10 : float;
      last_pause : int;
    }
  | Hard_stop of { collector : string; diagnostic : string; live_units : int }
      (** [live_units]: the peak before the refused allocation *)
  | Revoke_request of { assumption : string }
  | Revoke_apply of { assumptions : string list; repair_set : int }
  | Revoke_site of {
      site : string;
      guards : string list;  (** the site's whole guard set *)
      guard : string;  (** provenance: the failed guard that flipped it *)
      half : half;
      materialized : bool;  (** first executed after the revocation *)
      justification : string option;
    }
  | Runtime_degraded of { reason : string }
  | Chaos_fault of { fault : string; at : fault_at; count : int option }
  | Census of {
      collector : string;
      cycle : int;
      heap_live : int;
      heap_units : int;
      fold : census_fold option;
      float : census_float option;  (** full observatory cycles only *)
    }
  | Anomaly of { detector : string; count : int }

(** A recorded event, stamped with the mutator step it happened at. *)
type entry = { step : int; ev : event }

(** The kind's dotted name ("gc.cycle.start", "revoke.site", ...). *)
let kind_name = function
  | Cycle_start _ -> "gc.cycle.start"
  | Cycle_finish _ -> "gc.cycle.finish"
  | Gc_restart _ -> "gc.restart"
  | Gc_degraded _ -> "gc.degraded"
  | Pause _ -> "gc.pause"
  | Assist -> "gc.assist"
  | Trigger _ -> "pacer.trigger"
  | Degraded _ -> "pacer.degraded"
  | Recovered _ -> "pacer.recovered"
  | Retune _ -> "pacer.retune"
  | Hard_stop _ -> "pacer.hard_stop"
  | Revoke_request _ -> "revoke.request"
  | Revoke_apply _ -> "revoke.apply"
  | Revoke_site _ -> "revoke.site"
  | Runtime_degraded _ -> "runtime.degraded"
  | Chaos_fault _ -> "chaos.fault"
  | Census _ -> "heap.census"
  | Anomaly _ -> "anomaly"

(** The kind's fields, in stream order. *)
let fields (ev : event) : (string * J.json) list =
  let int k n = (k, J.Int n) and str k s = (k, J.Str s) in
  let strs k l = (k, J.List (List.map (fun s -> J.Str s) l)) in
  let opt f k = function Some v -> [ f k v ] | None -> [] in
  match ev with
  | Cycle_start { collector; cycle; snapshot_size } ->
      [ str "collector" collector; int "cycle" cycle; str "phase" "marking" ]
      @ opt int "snapshot_size" snapshot_size
  | Cycle_finish { collector; cycle; marked; final_pause_work; swept; violations; log } ->
      [
        str "collector" collector; int "cycle" cycle; str "phase" "idle";
        int "marked" marked; int "final_pause_work" final_pause_work;
        int "swept" swept; int "violations" violations;
      ]
      @ (match log with
        | Satb_log { logged; restarts } ->
            [ int "logged" logged; int "restarts" restarts ]
        | Retrace_log { logged; retraces; budget_overflows; degraded; repair_enqueues } ->
            [
              int "logged" logged; int "retraces" retraces;
              int "budget_overflows" budget_overflows; ("degraded", J.Bool degraded);
              int "repair_enqueues" repair_enqueues;
            ]
        | Card_log { dirty_cards; rescan_rounds } ->
            [ int "dirty_cards" dirty_cards; int "rescan_rounds" rescan_rounds ]
        | Shade_log { del_shades; ins_shades; stack_scans; rescans } ->
            [
              int "del_shades" del_shades; int "ins_shades" ins_shades;
              int "stack_scans" stack_scans; int "rescans" rescans;
            ])
  | Gc_restart { collector; cycle; snapshot_size } ->
      [ str "collector" collector; int "cycle" cycle ]
      @ opt int "snapshot_size" snapshot_size
  | Gc_degraded { collector; cycle; enqueued; budget } ->
      [
        str "collector" collector; int "cycle" cycle; int "enqueued" enqueued;
        int "budget" budget;
      ]
  | Pause { collector; at_step; work } ->
      [ str "collector" collector; int "at_step" at_step; int "work" work ]
  | Assist -> []
  | Trigger { collector; mode; live_units; trigger_units; degraded } ->
      [
        str "collector" collector; str "mode" mode; int "live_units" live_units;
        int "trigger_units" trigger_units; ("degraded", J.Bool degraded);
      ]
  | Degraded { collector; live_units; soft_limit }
  | Recovered { collector; live_units; soft_limit } ->
      [
        str "collector" collector; int "live_units" live_units;
        int "soft_limit" soft_limit;
      ]
  | Retune { collector; goal; p99; mmu_10; last_pause } ->
      [
        str "collector" collector; ("goal", J.Float goal); int "p99" p99;
        ("mmu_10", J.Float mmu_10); int "last_pause" last_pause;
      ]
  | Hard_stop { collector; diagnostic; live_units } ->
      [
        str "collector" collector; str "diagnostic" diagnostic;
        int "live_units" live_units;
      ]
  | Revoke_request { assumption } -> [ str "assumption" assumption ]
  | Revoke_apply { assumptions; repair_set } ->
      [ strs "assumptions" assumptions; int "repair_set" repair_set ]
  | Revoke_site { site; guards; guard; half; materialized; justification } ->
      [ str "site" site; strs "guards" guards; ("materialized", J.Bool materialized) ]
      @ opt str "justification" justification
      @ [
          str "guard" guard;
          str "half" (match half with Full -> "full" | Del -> "del" | Ins -> "ins");
        ]
  | Runtime_degraded { reason } -> [ str "reason" reason ]
  | Chaos_fault { fault; at; count } ->
      [
        str "fault" fault;
        (match at with At_instr n -> int "at_instr" n | At_alloc n -> int "at_alloc" n);
      ]
      @ opt int "count" count
  | Census { collector; cycle; heap_live; heap_units; fold; float } ->
      [
        str "collector" collector; int "cycle" cycle; int "heap_live" heap_live;
        int "heap_units" heap_units;
      ]
      @ (match fold with
        | Some f ->
            [
              int "census_live" f.census_live; int "census_units" f.census_units;
              int "sites" f.sites;
            ]
        | None -> [])
      @ (match float with
        | Some f ->
            [ int "float_objs" f.float_objs; int "float_units" f.float_units ]
            @ List.map (fun (o, n) -> int ("float_" ^ o) n) f.by_origin
            @ List.map (fun (v, n) -> int ("float_vd_" ^ v) n) f.by_verdict
        | None -> [])
  | Anomaly { detector; count } -> [ str "detector" detector; int "count" count ]

(** The one schema: the kind's name and its fields, [step] first.  The
    trace streams exactly this (plus [ts] and [seq]), a dump stores it
    (plus ["kind"]), and the Chrome exports carry it as [args]. *)
let render (e : entry) : string * (string * J.json) list =
  (kind_name e.ev, ("step", J.Int e.step) :: fields e.ev)

(** [{"kind": ..., "step": ..., fields...}] — one dump event, and one
    trace line without its [ts] and [seq]. *)
let to_json (e : entry) : J.json =
  let kind, fs = render e in
  J.Obj (("kind", J.Str kind) :: fs)

(** Inverse of {!to_json} (floats up to their printed precision). *)
let of_json (j : J.json) : (entry, string) result =
  let exception Bad of string in
  let kvs = match j with J.Obj kvs -> kvs | _ -> [] in
  let has k = List.mem_assoc k kvs in
  let get k what f =
    match Option.bind (List.assoc_opt k kvs) f with
    | Some v -> v
    | None -> raise (Bad (Printf.sprintf "%S: expected %s" k what))
  in
  let int k = get k "an int" (function J.Int n -> Some n | _ -> None) in
  let str k = get k "a string" (function J.Str s -> Some s | _ -> None) in
  let bool k = get k "a bool" (function J.Bool b -> Some b | _ -> None) in
  let float k =
    get k "a number" (function
      | J.Float f -> Some f
      | J.Int n -> Some (float_of_int n)
      | _ -> None)
  in
  let strs k =
    get k "a list of strings" (function
      | J.List l ->
          let elt = function J.Str s -> s | _ -> raise (Bad (k ^ ": not a string")) in
          Some (List.map elt l)
      | _ -> None)
  in
  let opt f k = if has k then Some (f k) else None in
  (* the census float breakdown: one int field per name after [prefix] *)
  let named prefix ~skip =
    let n = String.length prefix in
    List.filter_map
      (fun (k, v) ->
        match v with
        | J.Int units
          when String.starts_with ~prefix k
               && not (List.exists (fun p -> String.starts_with ~prefix:p k) skip) ->
            Some (String.sub k n (String.length k - n), units)
        | _ -> None)
      kvs
  in
  try
    let ev =
      match str "kind" with
      | "gc.cycle.start" ->
          Cycle_start
            {
              collector = str "collector"; cycle = int "cycle";
              snapshot_size = opt int "snapshot_size";
            }
      | "gc.cycle.finish" ->
          let log =
            if has "restarts" then
              Satb_log { logged = int "logged"; restarts = int "restarts" }
            else if has "retraces" then
              Retrace_log
                {
                  logged = int "logged"; retraces = int "retraces";
                  budget_overflows = int "budget_overflows"; degraded = bool "degraded";
                  repair_enqueues = int "repair_enqueues";
                }
            else if has "dirty_cards" then
              Card_log
                { dirty_cards = int "dirty_cards"; rescan_rounds = int "rescan_rounds" }
            else
              Shade_log
                {
                  del_shades = int "del_shades"; ins_shades = int "ins_shades";
                  stack_scans = int "stack_scans"; rescans = int "rescans";
                }
          in
          Cycle_finish
            {
              collector = str "collector"; cycle = int "cycle"; marked = int "marked";
              final_pause_work = int "final_pause_work"; swept = int "swept";
              violations = int "violations"; log;
            }
      | "gc.restart" ->
          Gc_restart
            {
              collector = str "collector"; cycle = int "cycle";
              snapshot_size = opt int "snapshot_size";
            }
      | "gc.degraded" ->
          Gc_degraded
            {
              collector = str "collector"; cycle = int "cycle"; enqueued = int "enqueued";
              budget = int "budget";
            }
      | "gc.pause" ->
          Pause
            { collector = str "collector"; at_step = int "at_step"; work = int "work" }
      | "gc.assist" -> Assist
      | "pacer.trigger" ->
          Trigger
            {
              collector = str "collector"; mode = str "mode";
              live_units = int "live_units"; trigger_units = int "trigger_units";
              degraded = bool "degraded";
            }
      | "pacer.degraded" ->
          Degraded
            {
              collector = str "collector"; live_units = int "live_units";
              soft_limit = int "soft_limit";
            }
      | "pacer.recovered" ->
          Recovered
            {
              collector = str "collector"; live_units = int "live_units";
              soft_limit = int "soft_limit";
            }
      | "pacer.retune" ->
          Retune
            {
              collector = str "collector"; goal = float "goal"; p99 = int "p99";
              mmu_10 = float "mmu_10"; last_pause = int "last_pause";
            }
      | "pacer.hard_stop" ->
          Hard_stop
            {
              collector = str "collector"; diagnostic = str "diagnostic";
              live_units = int "live_units";
            }
      | "revoke.request" -> Revoke_request { assumption = str "assumption" }
      | "revoke.apply" ->
          Revoke_apply { assumptions = strs "assumptions"; repair_set = int "repair_set" }
      | "revoke.site" ->
          let half =
            match str "half" with
            | "full" -> Full
            | "del" -> Del
            | "ins" -> Ins
            | h -> raise (Bad (Printf.sprintf "unknown half %S" h))
          in
          Revoke_site
            {
              site = str "site"; guards = strs "guards"; guard = str "guard"; half;
              materialized = bool "materialized"; justification = opt str "justification";
            }
      | "runtime.degraded" -> Runtime_degraded { reason = str "reason" }
      | "chaos.fault" ->
          let at =
            if has "at_alloc" then At_alloc (int "at_alloc")
            else At_instr (int "at_instr")
          in
          Chaos_fault { fault = str "fault"; at; count = opt int "count" }
      | "heap.census" ->
          let fold =
            if has "census_live" then
              Some
                {
                  census_live = int "census_live"; census_units = int "census_units";
                  sites = int "sites";
                }
            else None
          in
          let float =
            if has "float_objs" then
              Some
                {
                  float_objs = int "float_objs"; float_units = int "float_units";
                  by_origin =
                    named "float_" ~skip:[ "float_vd_"; "float_objs"; "float_units" ];
                  by_verdict = named "float_vd_" ~skip:[];
                }
            else None
          in
          Census
            {
              collector = str "collector"; cycle = int "cycle";
              heap_live = int "heap_live"; heap_units = int "heap_units"; fold; float;
            }
      | "anomaly" -> Anomaly { detector = str "detector"; count = int "count" }
      | k -> raise (Bad (Printf.sprintf "unknown event kind %S" k))
    in
    Ok { step = int "step"; ev }
  with Bad msg -> Error ("event: " ^ msg)
