(** The bench regression gate — see gate.mli. *)

module J = Telemetry

(* The four limits every relative metric is gated against. *)
let max_elision_drop = 2.0 (* points, any elimination percentage *)
let max_pause_increase_pct = 25.0 (* p99 / max pause growth *)
let max_cost_increase_pct = 10.0 (* modelled barrier cost growth *)
let max_mmu_drop = 0.05 (* absolute MMU@10% drop *)

type outcome = { o_lines : string list; o_regressions : string list }

let regressed (o : outcome) : bool = o.o_regressions <> []

let render (o : outcome) : string =
  String.concat "" (List.map (fun l -> l ^ "\n") o.o_lines)
  ^
  if regressed o then
    Printf.sprintf "FAIL: %d regression(s)\n" (List.length o.o_regressions)
  else "OK: no regressions\n"

(* How a gated metric regresses: an elimination percentage dropping by
   points, a cost/pause growing by percent, a utilization dropping in
   absolute terms. *)
type direction =
  | Points_drop of float
  | Pct_increase of float
  | Abs_drop of float
  | Max_value of float
      (* absolute ceiling on the NEW value, independent of the baseline:
         zero-tolerance metrics (oracle violations, hard stops) gate at
         0.0 — a baseline must never grandfather one in *)
  | Min_value of float
      (* absolute floor on the NEW value, independent of the baseline:
         the threaded-engine speedup must never fall below the floor,
         even if a slow run was accidentally baselined *)

(* (table, key fields, gated metrics) *)
let known_tables : (string * string list * (string * direction) list) list =
  [
    ("table1", [ "benchmark" ], [ ("elim_pct", Points_drop max_elision_drop) ]);
    ( "fig2_summaries",
      [ "benchmark"; "inline_limit" ],
      [
        ("elim_pct_havoc", Points_drop max_elision_drop);
        ("elim_pct_summaries", Points_drop max_elision_drop);
      ] );
    ( "table2",
      [ "mode" ],
      [ ("cost_units", Pct_increase max_cost_increase_pct) ] );
    ( "pause",
      [ "bench"; "collector" ],
      [
        ("p99", Pct_increase max_pause_increase_pct);
        ("max", Pct_increase max_pause_increase_pct);
        ("mmu_10", Abs_drop max_mmu_drop);
      ] );
    (* E14 rows (workload, variant) and a `profile --json` file's row
       (workload, gc) alike; each half's rate is gated only when both
       files carry it *)
    ( "profile",
      [ "workload"; "variant"; "gc" ],
      [
        ("elision_pct", Points_drop max_elision_drop);
        ("del_elision_pct", Points_drop max_elision_drop);
        ("ins_elision_pct", Points_drop max_elision_drop);
        ("units_per_kstep", Pct_increase max_cost_increase_pct);
        ("pause_p99", Pct_increase max_pause_increase_pct);
        ("pause_max", Pct_increase max_pause_increase_pct);
        ("violations", Max_value 0.0);
      ] );
    ( "hybrid",
      [ "bench"; "collector" ],
      [
        ("del_elide_pct", Points_drop max_elision_drop);
        ("ins_elide_pct", Points_drop max_elision_drop);
        ("both_elide_pct", Points_drop max_elision_drop);
        ("violations", Max_value 0.0);
      ] );
    ("hybrid_chaos", [ "plan"; "bench" ], [ ("violations", Max_value 0.0) ]);
    (* E16: pauses are gated leniently (pacing policies trade pause size
       for throughput by design), violations and hard stops at zero *)
    ( "pacing",
      [ "bench"; "collector"; "policy" ],
      [
        ("violations", Max_value 0.0);
        ("hard_stops", Max_value 0.0);
        ("elide_pct", Points_drop max_elision_drop);
        ("p99", Pct_increase (2.0 *. max_pause_increase_pct));
        ("mmu_10", Abs_drop (2.0 *. max_mmu_drop));
      ] );
    ( "pacing_chaos",
      [ "plan"; "bench"; "collector" ],
      [
        ("violations", Max_value 0.0);
        ("hard_stops", Max_value 0.0);
      ] );
    ( "pacing_summary",
      [ "bench" ],
      [
        (* only the TOTAL row carries auto_losses; auto must beat the
           best fixed trigger on at least 3 of the 6 workloads *)
        ("auto_losses", Max_value 3.0);
      ] );
    (* E17: the threaded engine's speedup over the interpreter is an
       absolute floor, not a baseline-relative delta — refreshing the
       baseline after a dispatch regression must not grandfather it in.
       Observed 3.6-5.0x across the six workloads; 3.0 leaves headroom
       for shared-runner timing noise (interp throughput swings tens of
       percent run-to-run) while still catching any real regression. *)
    ("engines", [ "benchmark" ], [ ("speedup", Min_value 3.0) ]);
    (* E18: the flight recorder must stay cheap enough to leave on — an
       absolute ceiling on the measured overhead, never baseline-relative,
       so a noisy baseline can't grandfather in a hot recorder.  The
       recorder writes nothing per-store (only per-cycle and per-safepoint
       events), so the true overhead is well under 1%; 2.0 absorbs
       shared-runner timing noise. *)
    ("flight", [ "benchmark" ], [ ("overhead_pct", Max_value 2.0) ]);
    (* E19: float counts are pure simulation state (interp engine, fixed
       cadence), so the float columns are diffed like any deterministic
       metric; the observatory's runtime cost is an absolute ceiling so
       a noisy baseline can never grandfather in an expensive census. *)
    ( "heap",
      [ "bench"; "collector" ],
      [
        ("float_units", Pct_increase max_cost_increase_pct);
        ("float_pct", Pct_increase max_cost_increase_pct);
      ] );
    ("heap_overhead", [ "benchmark" ], [ ("overhead_pct", Max_value 3.0) ]);
  ]

(* Version stamp of the BENCH table-file layout; [bench --json] and
   [profile --json] write it and {!diff_json} refuses to compare files
   written at different versions.  Files predating versioning carry none
   and only compare with each other. *)
let bench_schema_version = 1

let bench_version (o : (string * J.json) list) : int option =
  match List.assoc_opt "schema_version" o with
  | Some (J.Int v) -> Some v
  | Some _ | None -> None

let scalar_string = function
  | J.Str s -> s
  | J.Int i -> string_of_int i
  | J.Float f -> string_of_float f
  | J.Bool b -> string_of_bool b
  | J.Null -> "null"
  | J.List _ | J.Obj _ -> "<composite>"

let as_number = function
  | J.Int i -> Some (float_of_int i)
  | J.Float f -> Some f
  | _ -> None

(* the row's identity: its key fields that are present, in order *)
let row_key (key_fields : string list) (row : (string * J.json) list) : string =
  String.concat "/"
    (List.filter_map
       (fun k -> Option.map scalar_string (List.assoc_opt k row))
       key_fields)

let fmt_value v =
  if Float.is_integer v && Float.abs v < 1e9 then
    string_of_int (int_of_float v)
  else Printf.sprintf "%.2f" v

(* ---- BENCH table files -------------------------------------------------- *)

exception Malformed of string

(* Compare [old_v -> new_v] of one gated metric: [Ok note] or
   [Error regression]. *)
let check name dir old_v new_v : (string, string) result =
  match dir with
  | Points_drop limit ->
      let drop = old_v -. new_v in
      if drop > limit then
        Error
          (Printf.sprintf "%s fell %.1f points (%.1f -> %.1f, allowed %.1f)"
             name drop old_v new_v limit)
      else Ok (Printf.sprintf "%s %.1f -> %.1f ok" name old_v new_v)
  | Pct_increase limit ->
      let pct = 100.0 *. (new_v -. old_v) /. Float.max 1e-9 old_v in
      if new_v > old_v && pct > limit then
        Error
          (Printf.sprintf "%s grew %.0f%% (%s -> %s, allowed %.0f%%)" name pct
             (fmt_value old_v) (fmt_value new_v) limit)
      else
        Ok
          (Printf.sprintf "%s %s -> %s ok" name (fmt_value old_v)
             (fmt_value new_v))
  | Abs_drop limit ->
      let drop = old_v -. new_v in
      if drop > limit then
        Error
          (Printf.sprintf "%s dropped %.3f (%.3f -> %.3f, allowed %.3f)" name
             drop old_v new_v limit)
      else Ok (Printf.sprintf "%s %.3f -> %.3f ok" name old_v new_v)
  | Max_value ceiling ->
      if new_v > ceiling then
        Error
          (Printf.sprintf "%s is %s (ceiling %s)" name (fmt_value new_v)
             (fmt_value ceiling))
      else Ok (Printf.sprintf "%s %s ok" name (fmt_value new_v))
  | Min_value floor ->
      if new_v < floor then
        Error
          (Printf.sprintf "%s is %s (floor %s)" name (fmt_value new_v)
             (fmt_value floor))
      else Ok (Printf.sprintf "%s %s ok" name (fmt_value new_v))

(* Raises [Malformed] on a gated metric that is present but not a
   number, or a gated table that is not a list of rows. *)
let diff_tables (old_tables : (string * J.json) list)
    (new_tables : (string * J.json) list) : outcome =
  let lines = ref [] and regressions = ref [] in
  let note s = lines := s :: !lines in
  let regress s =
    note ("REGRESSION: " ^ s);
    regressions := s :: !regressions
  in
  let rows_of table = function
    | J.List rows ->
        List.map
          (function
            | J.Obj o -> o
            | _ -> raise (Malformed (table ^ ": a row is not an object")))
          rows
    | _ -> raise (Malformed (table ^ ": expected a list of rows"))
  in
  let metric name row m =
    Option.map
      (fun v ->
        match as_number v with
        | Some f -> f
        | None -> raise (Malformed (name ^ ": expected a number")))
      (List.assoc_opt m row)
  in
  List.iter
    (fun (table, old_json) ->
      match List.find_opt (fun (t, _, _) -> t = table) known_tables with
      | None -> (
          (* a member that is not a list of rows is run metadata, not a
             table *)
          match old_json with
          | J.List _ ->
              note (Printf.sprintf "table %s: not gated, skipped" table)
          | _ -> ())
      | Some (_, key_fields, metrics) -> (
          match List.assoc_opt table new_tables with
          | None ->
              regress
                (Printf.sprintf "table %s missing from the new file" table)
          | Some new_json ->
              let new_rows = rows_of table new_json in
              List.iter
                (fun old_row ->
                  let key = row_key key_fields old_row in
                  match
                    List.find_opt (fun r -> row_key key_fields r = key) new_rows
                  with
                  | None ->
                      regress
                        (Printf.sprintf "%s/%s: missing from the new file" table
                           key)
                  | Some new_row ->
                      List.iter
                        (fun (m, dir) ->
                          let name = Printf.sprintf "%s/%s %s" table key m in
                          match
                            (metric name old_row m, metric name new_row m)
                          with
                          | Some old_v, Some new_v -> (
                              match check name dir old_v new_v with
                              | Ok s -> note s
                              | Error s -> regress s)
                          | _, _ -> ())
                        metrics)
                (rows_of table old_json)))
    old_tables;
  { o_lines = List.rev !lines; o_regressions = List.rev !regressions }

let diff_json ~(old_ : J.json) (new_ : J.json) : (outcome, string) result =
  match (old_, new_) with
  | J.Obj old_tables, J.Obj new_tables -> (
      let strip = List.filter (fun (k, _) -> k <> "schema_version") in
      match (bench_version old_tables, bench_version new_tables) with
      | Some a, Some b when a <> b ->
          Error
            (Printf.sprintf
               "schema_version mismatch: old file v%d, new file v%d; \
                regenerate the baseline"
               a b)
      | Some v, _ when v <> bench_schema_version ->
          Error
            (Printf.sprintf
               "old file is v%d, but this build reads v%d; regenerate it" v
               bench_schema_version)
      | _, Some v when v <> bench_schema_version ->
          Error
            (Printf.sprintf
               "new file is v%d, but this build reads v%d; regenerate it" v
               bench_schema_version)
      | None, Some b ->
          Error
            (Printf.sprintf
               "old file has no schema_version but the new file is v%d; \
                regenerate the baseline"
               b)
      | Some a, None ->
          Error
            (Printf.sprintf
               "old file is v%d but the new file has no schema_version" a)
      | Some _, Some _ | None, None -> (
          match diff_tables (strip old_tables) (strip new_tables) with
          | o -> Ok o
          | exception Malformed e -> Error e))
  | _ -> Error "expected top-level JSON objects"

let diff_files ~(old_path : string) (new_path : string) :
    (outcome, string) result =
  let read path =
    match In_channel.with_open_text path In_channel.input_all with
    | contents -> (
        match J.json_of_string contents with
        | Ok j -> Ok j
        | Error e -> Error (Printf.sprintf "%s: %s" path e))
    | exception Sys_error e -> Error e
  in
  match (read old_path, read new_path) with
  | Ok o, Ok n -> diff_json ~old_:o n
  | Error e, _ | _, Error e -> Error e
