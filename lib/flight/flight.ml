(* The runtime's one event pipeline.  See flight.mli for the contract.

   Layout: a pre-allocated ring of stamped events indexed by
   [total mod capacity].  A run records tens to a few hundred events, all
   on cold paths (cycle boundaries, pacer decisions, revocations,
   faults), so an event is an ordinary immutable value; the
   recorder stays enabled under the threaded engine (<2% on every
   workload, gated by BENCH_flight.json). *)

include Event
include Dump
module J = Telemetry

(* ---- the ring ---------------------------------------------------------- *)

let default_capacity = 4096
let cap = ref default_capacity
let empty = { step = 0; ev = Assist }
let ring = ref (Array.make default_capacity empty)
let total = ref 0
let on = ref true
let step_source : (unit -> int) ref = ref (fun () -> 0)
let meta : (string * string) list ref = ref []

let sites_source : (unit -> site_state list) ref = ref (fun () -> [])

(* Heap-census snapshot at dump time (cycle, live objects, live units).
   Installed only when a heap observer is armed.  Exists for the
   hard-limit abort path: the in-flight cycle's census has not been
   recorded yet when the ring is captured, so the dump flushes the heap
   state directly. *)
let census_source : (unit -> (int * int * int) option) ref =
  ref (fun () -> None)

let enabled () = !on
let set_enabled b = on := b
let set_step_source f = step_source := f
let set_meta m = meta := m
let set_sites_source f = sites_source := f
let set_census_source f = census_source := f
let recorded () = !total
let capacity () = !cap

let push (e : entry) =
  !ring.(!total mod !cap) <- e;
  incr total

let stream (e : entry) =
  let kind, fs = render e in
  J.emit kind fs

let record (ev : event) : unit =
  if !on || J.armed () then begin
    let e = { step = !step_source (); ev } in
    if !on then push e;
    if J.armed () then stream e
  end

let first_live () = max 0 (!total - !cap)

let events () : entry list =
  let rec go n acc =
    if n < first_live () then acc else go (n - 1) (!ring.(n mod !cap) :: acc)
  in
  go (!total - 1) []

(* ---- anomaly detectors ------------------------------------------------- *)

(* Windowed counters over the event stream, evaluated at safepoint polls.
   Each keeps the steps of its recent relevant events (pruned against the
   window) and fires at most once per run: a firing records an [Anomaly]
   event and triggers auto-capture, and a stuck detector re-firing every
   safepoint would bury the evidence it exists to preserve. *)

type det = {
  d_name : string;
  d_window : int;  (* steps *)
  d_threshold : int;
  mutable d_recent : int list;  (* steps, newest first *)
  mutable d_fired : bool;
}

let mk_det name ~window ~threshold =
  {
    d_name = name;
    d_window = window;
    d_threshold = threshold;
    d_recent = [];
    d_fired = false;
  }

let det_revoke_storm = mk_det "revocation-storm" ~window:5000 ~threshold:6
let det_oscillation = mk_det "pacing-oscillation" ~window:20000 ~threshold:4
let det_assist_spiral = mk_det "assist-spiral" ~window:5000 ~threshold:50

(* degradation cascade: three distinct degradation signals — pacer soft
   pressure, swap degradation / runtime degraded, and a revocation —
   landing inside one window *)
let det_cascade = mk_det "degradation-cascade" ~window:10000 ~threshold:3
let cascade_soft = ref (-1)
let cascade_degraded = ref (-1)
let cascade_revoke = ref (-1)

let detectors = [ det_revoke_storm; det_oscillation; det_assist_spiral; det_cascade ]
let fired : (string * int) list ref = ref []  (* newest first *)
let polled = ref 0

(* capture is defined below; detectors reach it through this knot *)
let capture_hook : (reason:string -> unit) ref = ref (fun ~reason:_ -> ())

let fire (d : det) (step : int) ~(count : int) : unit =
  d.d_fired <- true;
  fired := (d.d_name, step) :: !fired;
  record (Anomaly { detector = d.d_name; count });
  !capture_hook ~reason:("anomaly:" ^ d.d_name)

let det_note (d : det) (step : int) : unit =
  if not d.d_fired then begin
    d.d_recent <- step :: List.filter (fun s -> step - s < d.d_window) d.d_recent;
    if List.length d.d_recent >= d.d_threshold then
      fire d step ~count:(List.length d.d_recent)
  end

let det_cascade_note (slot : int ref) (step : int) : unit =
  if not det_cascade.d_fired then begin
    slot := step;
    let live s = s >= 0 && step - s < det_cascade.d_window in
    if live !cascade_soft && live !cascade_degraded && live !cascade_revoke
    then fire det_cascade step ~count:3
  end

let poll () : unit =
  if !polled < !total then begin
    let from = max !polled (first_live ()) in
    for n = from to !total - 1 do
      let { step; ev } = !ring.(n mod !cap) in
      match ev with
      | Revoke_site _ ->
          det_note det_revoke_storm step;
          det_cascade_note cascade_revoke step
      | Degraded _ ->
          det_note det_oscillation step;
          det_cascade_note cascade_soft step
      | Assist -> det_note det_assist_spiral step
      | Runtime_degraded _ -> det_cascade_note cascade_degraded step
      | _ -> ()
    done;
    polled := !total
  end

let anomalies () = List.rev !fired

(* ---- run lifecycle ----------------------------------------------------- *)

let begin_run () : unit =
  total := 0;
  polled := 0;
  meta := [];
  fired := [];
  List.iter
    (fun d ->
      d.d_recent <- [];
      d.d_fired <- false)
    detectors;
  cascade_soft := -1;
  cascade_degraded := -1;
  cascade_revoke := -1;
  step_source := (fun () -> 0);
  sites_source := (fun () -> []);
  census_source := (fun () -> None)

let set_capacity (n : int) : unit =
  let n = max 16 n in
  cap := n;
  ring := Array.make n empty;
  begin_run ()

(* ---- dumps ------------------------------------------------------------- *)

let site_to_json (s : site_state) : J.json =
  J.Obj
    [
      ("site", J.Str s.fs_site);
      ("kind", J.Str s.fs_kind);
      ("state", J.Str s.fs_state);
      ("execs", J.Int s.fs_execs);
      ("paid", J.Int s.fs_paid);
      ("elided", J.Int s.fs_elided_execs);
      ("revocations", J.Int s.fs_revocations);
      ("guards", J.List (List.map (fun g -> J.Str g) s.fs_guards));
    ]

let dump_json ~(reason : string) : J.json =
  let sites =
    List.sort (fun a b -> compare a.fs_site b.fs_site) (!sites_source ())
  in
  J.Obj
    [
      ( "flight",
        J.Obj
          ([
             ("version", J.Int 3);
             ("reason", J.Str reason);
             ("at_step", J.Int (!step_source ()));
             ("capacity", J.Int !cap);
             ("recorded", J.Int !total);
             ("meta", J.Obj (List.map (fun (k, v) -> (k, J.Str v)) !meta));
             ("events", J.List (List.map to_json (events ())));
             ("sites", J.List (List.map site_to_json sites));
             ( "anomalies",
               J.List
                 (List.map
                    (fun (name, step) ->
                      J.Obj [ ("detector", J.Str name); ("at_step", J.Int step) ])
                    (anomalies ())) );
           ]
          @
          (* only when a heap observer is armed *)
          match !census_source () with
          | Some (cycle, live, units) ->
              [
                ( "pending_census",
                  J.Obj
                    [
                      ("cycle", J.Int cycle);
                      ("live", J.Int live);
                      ("live_units", J.Int units);
                    ] );
              ]
          | None -> []) );
    ]

let dump_to_file ~reason path =
  J.write_file path (J.json_to_string_pretty (dump_json ~reason))

(* ---- auto-capture ------------------------------------------------------ *)

let armed_dir : string option ref = ref None
let captured_at : (string * string) option ref = ref None

let arm_capture ?(dir = ".") () = armed_dir := Some dir
let disarm_capture () = armed_dir := None

let capture ~(reason : string) : string option =
  match (!armed_dir, !captured_at) with
  | Some dir, None ->
      let path = Filename.concat dir "FLIGHT_dump.json" in
      dump_to_file ~reason path;
      captured_at := Some (path, reason);
      Some path
  | _ -> None

let captured () = !captured_at
let () = capture_hook := fun ~reason -> ignore (capture ~reason)
