(* Closed-loop benchmark of the compile -> run pipeline.

     perf.exe run --workload W --seed S [--seconds N] [--trace [0|1]]
                  [--out DIR]
     perf.exe run --smoke
     perf.exe compare A B

   One client on one OCaml thread: the next request starts only after the
   previous one returned.  Each workload has fixed request counts (scaled
   by --seconds against a nominal 20 s run), so two commits do the same
   work.  Requests round-robin over the workload's kinds; the j-th request
   of a kind uses runner seed S + (j mod 4), and the order is shuffled
   from S.  Every request's output is checked.  The last line of standard
   output is the result as one JSON object: the listed end-to-end metrics
   untraced, the listed per-layer metrics with --trace. *)

open Perf_lib
open Requests

(* the process start, as near as this module can see it *)
let t_start = Unix.gettimeofday ()

(* ---- end-to-end metrics ---------------------------------------------- *)

let peak_rss_mb () : float option =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      let rec find () =
        match input_line ic with
        | exception End_of_file -> None
        | l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb ->
                Some (float_of_int kb /. 1024.0))
        | _ -> find ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) find

let pct a b =
  if b = 0 then None else Some (100.0 *. float_of_int a /. float_of_int b)

(* (metric, value, samples); None where the metric is undefined for the
   workload, or refused.

   The machine a benchmark shares runs in fast and slow phases lasting
   seconds to minutes; a kernel that uses no repository code swings by
   +-25% from one second to the next.  Throughput and the median latency
   are therefore taken per round of the loop and reported from its
   quieter quarter: the upper quartile of the rounds' rates, the lower
   quartile of their median latencies.  On the same ten runs this
   narrowed their spread between runs by up to half; a change that slows
   every request slows every round alike. *)
let e2e_values (w : workload) ~(setups : float list) (ps : prepared array)
    (l : loop) : (string * float option * string) list =
  (* first, before the pause list below is built *)
  let rss = peak_rss_mb () in
  let pauses = pauses ps l in
  let kinds = Array.length ps in
  let lat = List.init kinds (fun k -> kind_lat l k) in
  let min_n = List.fold_left (fun m xs -> min m (List.length xs)) max_int lat in
  let per_kind = Printf.sprintf "%d kinds, >= %d each" kinds min_n in
  let p99s = List.map Pstats.p99 lat in
  let rounds = rounds_of l.attempted kinds in
  let per_round f = List.init (Array.length rounds) f in
  let duration r =
    l.round_end.(r) -. if r = 0 then 0.0 else l.round_end.(r - 1)
  in
  let rate count r = float_of_int count /. duration r in
  let rates = per_round (fun r -> rate (snd rounds.(r) - fst rounds.(r)) r) in
  let step_rates = per_round (fun r -> rate l.round_work.(r) r) in
  let round_p50 r =
    List.init kinds (fun k -> kind_lat ~range:rounds.(r) l k)
    |> List.filter (( <> ) [])
    |> Pstats.geomean_of_medians
  in
  let quarter what =
    Printf.sprintf "%s; quieter quartile of %d rounds" what
      (Array.length rounds)
  in
  let work = Array.fold_left ( + ) 0 l.round_work in
  let run_only v = match w.request with Run -> v | Compile -> None in
  let sites f = Array.fold_left (fun n p -> n + f p.stats) 0 ps in
  let total = sites (fun s -> s.Satb_core.Driver.total_sites) in
  [
    ( "setup_s",
      Some (Pstats.median_f setups),
      Printf.sprintf "median of %d set-ups" (List.length setups) );
    ( "requests_per_s",
      Some (Pstats.percentile_f rates 75.0),
      quarter
        (Printf.sprintf "%d requests, %.6g/s over the whole loop" l.attempted
           (float_of_int l.attempted /. l.wall)) );
    ( "steps_per_s",
      Some (Pstats.percentile_f step_rates 75.0),
      quarter
        (Printf.sprintf "%d %s" work
           (match w.request with
           | Run -> "steps"
           | Compile -> "inlined instructions compiled")) );
    ( "latency_ms_p50",
      (if min_n = 0 then None
       else Some (Pstats.percentile_f (per_round round_p50) 25.0 /. 1e6)),
      quarter
        (Printf.sprintf "%s, %.6g ms over the whole loop" per_kind
           (Pstats.geomean_of_medians lat /. 1e6)) );
    ( "latency_ms_p99",
      (if List.for_all Option.is_some p99s then
         Some
           (Pstats.geomean
              (List.map (fun x -> float_of_int (Option.get x)) p99s)
           /. 1e6)
       else None),
      if min_n >= Pstats.p99_min_samples then per_kind
      else
        Printf.sprintf "refused: a kind has %d < %d samples" min_n
          Pstats.p99_min_samples );
    ( "remark_work_p99",
      run_only
        (if pauses = [] then None
         else Some (float_of_int (Profile.Stats.percentile pauses 99.0))),
      Printf.sprintf "%d cycles" (List.length pauses) );
    ( "dyn_elim_pct",
      run_only (pct l.dyn_elided l.dyn_total),
      Printf.sprintf "%d stores" l.dyn_total );
    ( "static_elim_pct",
      pct (sites (fun s -> s.Satb_core.Driver.elided_sites)) total,
      Printf.sprintf "%d sites" total );
    ("peak_rss_mb", rss, "VmHWM");
    ( "error_rate",
      Some (float_of_int l.failed /. float_of_int (max 1 l.attempted)),
      Printf.sprintf "%d of %d failed" l.failed l.attempted );
  ]

(* ---- output ------------------------------------------------------------ *)

let ms ns = float_of_int ns /. 1e6

let print_kinds (ps : prepared array) (l : loop) =
  Printf.printf "%-26s %7s %10s %10s  %s\n" "kind" "n" "p50_ms" "p99_ms"
    "highest percentile with >= 10 samples beyond it";
  Array.iteri
    (fun i (p : prepared) ->
      let xs = kind_lat l i in
      let n = List.length xs in
      Printf.printf "%-26s %7d %10s %10s  %s\n" p.k.label n
        (if n = 0 then "-" else Printf.sprintf "%.4f" (ms (Pstats.median xs)))
        (match Pstats.p99 xs with
        | Some v -> Printf.sprintf "%.4f" (ms v)
        | None -> "refused")
        (match Pstats.tail_percentile n with
        | Some p ->
            Printf.sprintf "p%g = %.4f ms" p
              (ms (Profile.Stats.percentile xs p))
        | None -> "-"))
    ps

let print_rows title rows =
  Printf.printf "%s\n%-30s %16s %-8s %s\n" title "metric" "value" "unit" "";
  List.iter
    (fun (name, v, unit, note) ->
      Printf.printf "%-30s %16s %-8s %s\n" name
        (match v with
        | Some v when Float.is_finite v -> Printf.sprintf "%.6g" v
        | _ -> "n/a")
        unit note)
    rows

let finite = function Some v when Float.is_finite v -> Some v | _ -> None

let metrics_json (rows : (string * float option * string) list) =
  Telemetry.Obj
    (List.filter_map
       (fun (name, v, unit) ->
         Option.map
           (fun v ->
             ( name,
               Telemetry.Obj
                 [ ("value", Telemetry.Float v); ("unit", Telemetry.Str unit) ]
             ))
           (finite v))
       rows)

let result_line ~correct ~attempted ~failed metrics =
  print_endline
    (Telemetry.json_to_string
       (Telemetry.Obj
          [
            ("correct", Telemetry.Bool correct);
            ("attempted", Telemetry.Int attempted);
            ("failed", Telemetry.Int failed);
            ("metrics", metrics);
          ]))

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* ---- the two kinds of run --------------------------------------------- *)

type untraced = {
  u_ps : prepared array;
  u_loop : loop;
  u_values : (string * float option * string) list;
}

(* The first set-up runs from [started] (the process start, for a
   single-workload run) to the first timed request.  The set-up is
   repeated [plan.setups] more times, spread evenly through the timed
   loop on a clock its timings exclude: a single set-up lasts 10-200 ms,
   so one sample says more about the machine's current phase than about
   the code. *)
let untraced ~(plan : Ledger.plan) ~seed ~started (w : workload) : untraced =
  let ps = setup ~trace:false ~seed w in
  let setups = ref [ now () -. started ] in
  let setup () =
    let t0 = now () in
    ignore (setup ~trace:false ~seed w);
    setups := (now () -. t0) :: !setups
  in
  Gc.full_major ();
  let order = order ~seed ~per_kind:plan.per_kind (Array.length ps) in
  let l = timed_loop ~setups:plan.setups ~setup ~trace:false ~seed w ps order in
  { u_ps = ps; u_loop = l; u_values = e2e_values w ~setups:!setups ps l }

type traced = {
  t_loop : loop;
  t_probes : Ledger.probes;
  t_spans : Spans.span list;
  t_values : (string * float) list;
}

let traced ~(plan : Ledger.plan) ~seed (w : workload) : traced =
  Spans.reset ();
  let ps = setup ~trace:true ~seed w in
  Gc.full_major ();
  let order = order ~seed ~per_kind:plan.per_kind (Array.length ps) in
  let l = timed_loop ~trace:true ~seed w ps order in
  let pr = Ledger.run_probes ~plan ~seed w ps in
  let spans = Spans.spans () in
  let values = Ledger.values w pr spans (Spans.counts ()) in
  { t_loop = l; t_probes = pr; t_spans = spans; t_values = values }

let e2e_rows values =
  List.map
    (fun (m : Metric.e2e) ->
      let v, samples =
        match List.find_opt (fun (n, _, _) -> n = m.name) values with
        | Some (_, v, s) -> (finite v, s)
        | None -> (None, "")
      in
      (m, v, samples))
    Metric.e2e

let report_untraced (w : workload) ~seed ~seconds (u : untraced) =
  let l = u.u_loop in
  Printf.printf
    "%s: %d kinds, %d requests in %.2f s, closed loop, 1 client, seed %d\n"
    w.name (Array.length u.u_ps) l.attempted l.wall seed;
  print_kinds u.u_ps l;
  let rows = e2e_rows u.u_values in
  print_rows "end-to-end (untraced)"
    (List.map
       (fun ((m : Metric.e2e), v, samples) ->
         ( m.name,
           v,
           m.unit,
           Printf.sprintf "%s%s" samples
             (if m.listed then "" else "  [not on the result line]") ))
       rows);
  List.iter (Printf.printf "failed: %s\n") l.faults;
  let record =
    Telemetry.Obj
      [
        ("workload", Telemetry.Str w.name);
        ("seed", Telemetry.Int seed);
        ("seconds", Telemetry.Int seconds);
        ("attempted", Telemetry.Int l.attempted);
        ("failed", Telemetry.Int l.failed);
        ( "metrics",
          metrics_json
            (List.map
               (fun ((m : Metric.e2e), v, _) -> (m.name, v, m.unit))
               rows) );
      ]
  in
  let listed =
    List.filter_map
      (fun ((m : Metric.e2e), v, _) ->
        if m.listed then Some (m.name, v, m.unit) else None)
      rows
  in
  (record, metrics_json listed)

let layers_json (t : traced) =
  Telemetry.List
    (List.map
       (fun (phase, name, kinds, samples, us) ->
         Telemetry.Obj
           [
             ("phase", Telemetry.Str (Spans.string_of_phase phase));
             ("layer", Telemetry.Str name);
             ("kinds", Telemetry.Int kinds);
             ("samples", Telemetry.Int samples);
             ("self_us", Telemetry.Float us);
           ])
       (Ledger.table (Ledger.self_rows t.t_spans)))

let report_traced (w : workload) (t : traced) =
  Printf.printf
    "%s traced: %d requests in %.2f s, %d probe runs, %d spans\n" w.name
    t.t_loop.attempted t.t_loop.wall t.t_probes.runs (List.length t.t_spans);
  Printf.printf "%-8s %-26s %6s %9s %12s\n" "phase" "layer" "kinds" "samples"
    "self_us";
  let self_rows = Ledger.self_rows t.t_spans in
  List.iter
    (fun (phase, name, kinds, samples, us) ->
      Printf.printf "%-8s %-26s %6d %9d %12.3f\n"
        (Spans.string_of_phase phase)
        name kinds samples us)
    (Ledger.table self_rows);
  let layers, request = Ledger.layer_sum self_rows t.t_spans in
  Printf.printf
    "request layers' self times sum to %.4f ms; the traced request's median \
     is %.4f ms (each a geomean over kinds, as latency_ms_p50)\n"
    (layers /. 1e6) (request /. 1e6);
  let rows =
    List.map
      (fun (m : Metric.layer) -> (m, List.assoc_opt m.l_name t.t_values))
      Metric.per_layer
  in
  print_rows "per-layer (traced)"
    (List.map
       (fun ((m : Metric.layer), v) -> (m.l_name, v, m.l_unit, "-> " ^ m.moves))
       rows);
  List.iter (Printf.printf "failed: %s\n")
    (t.t_loop.faults @ t.t_probes.faults);
  let json keep =
    metrics_json
      (List.filter_map
         (fun ((m : Metric.layer), v) ->
           if keep m then Some (m.l_name, v, m.l_unit) else None)
         rows)
  in
  (json (fun _ -> true), json (fun m -> m.everywhere))

let trace_file ~dir (w : workload) ~seed (t : traced) per_layer =
  let path = Filename.concat dir (w.name ^ ".trace.json") in
  Spans.write_chrome path ~origin:t_start t.t_spans
    [
      ("workload", Telemetry.Str w.name);
      ("seed", Telemetry.Int seed);
      ("layers", layers_json t);
      ("per_layer", per_layer);
    ];
  path

(* ---- run --------------------------------------------------------------- *)

type opts = {
  workload : string option;
  seed : int;
  seconds : int;
  trace : bool;
  out : string;
  smoke : bool;
}

let usage =
  "usage: perf.exe run --workload W --seed S [--seconds N] [--trace [0|1]] \
   [--out DIR]\n\
  \       perf.exe run --smoke\n\
  \       perf.exe compare A B\n\
   workloads: "
  ^ String.concat ", " (List.map (fun w -> w.name) workloads)

let fail_usage msg =
  prerr_endline msg;
  prerr_endline usage;
  exit 2

let rec parse o = function
  | [] -> o
  | "--workload" :: w :: r -> parse { o with workload = Some w } r
  | ("--seed" | "--seconds") as flag :: n :: r -> (
      match (flag, int_of_string_opt n) with
      | "--seed", Some s -> parse { o with seed = s } r
      | _, Some s when s >= 1 -> parse { o with seconds = s } r
      | _ -> fail_usage (flag ^ ": bad number " ^ n))
  | "--trace" :: (("0" | "1") as v) :: r -> parse { o with trace = v = "1" } r
  | "--trace" :: r -> parse { o with trace = true } r
  | "--out" :: d :: r -> parse { o with out = d } r
  | "--smoke" :: r -> parse { o with smoke = true } r
  | a :: _ -> fail_usage ("unknown argument " ^ a)

let run_one (o : opts) (w : workload) =
  let per_kind = max 1 (w.per_kind * o.seconds / nominal_seconds) in
  let plan = Ledger.full_plan per_kind in
  mkdir_p o.out;
  if o.trace then begin
    let t = traced ~plan ~seed:o.seed w in
    let all, listed = report_traced w t in
    let path = trace_file ~dir:o.out w ~seed:o.seed t all in
    Printf.printf "trace: %s\n" path;
    let failed = t.t_loop.failed + t.t_probes.failed in
    result_line ~correct:(failed = 0)
      ~attempted:(t.t_loop.attempted + t.t_probes.runs)
      ~failed listed
  end
  else begin
    let u = untraced ~plan ~seed:o.seed ~started:t_start w in
    let record, listed = report_untraced w ~seed:o.seed ~seconds:o.seconds u in
    Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644
      (Filename.concat o.out "runs.jsonl") (fun oc ->
        output_string oc (Telemetry.json_to_string record ^ "\n"));
    result_line ~correct:(u.u_loop.failed = 0) ~attempted:u.u_loop.attempted
      ~failed:u.u_loop.failed listed
  end

(* Every workload, one pass over its kinds, untraced and traced, all
   checks on; the trace is written to a temporary file and read back. *)
let smoke () =
  let ok = ref true in
  let problem w fmt =
    Printf.ksprintf
      (fun s ->
        ok := false;
        Printf.printf "smoke %s: %s\n" w.name s)
      fmt
  in
  List.iter
    (fun w ->
      let plan = Ledger.smoke_plan in
      let u = untraced ~plan ~seed:1 ~started:(Requests.now ()) w in
      if u.u_loop.failed > 0 then
        problem w "%d requests failed: %s" u.u_loop.failed
          (String.concat "; " u.u_loop.faults);
      List.iter
        (fun ((m : Metric.e2e), v, _) ->
          if m.listed && v = None then
            problem w "no value for %s" m.name)
        (e2e_rows u.u_values);
      let t = traced ~plan ~seed:1 w in
      if t.t_loop.failed + t.t_probes.failed > 0 then
        problem w "%d traced requests and %d probe runs failed: %s"
          t.t_loop.failed t.t_probes.failed
          (String.concat "; " (t.t_loop.faults @ t.t_probes.faults));
      List.iter
        (fun (m : Metric.layer) ->
          match List.assoc_opt m.l_name t.t_values with
          | Some v when Float.is_finite v -> ()
          | _ when not m.everywhere -> ()
          | _ -> problem w "no value for %s" m.l_name)
        Metric.per_layer;
      let dir = Filename.temp_dir "perf-smoke" "" in
      let path = trace_file ~dir w ~seed:1 t Telemetry.Null in
      let text = In_channel.with_open_text path In_channel.input_all in
      (match Telemetry.json_of_string text with
      | Ok _ -> ()
      | Error e -> problem w "unreadable trace: %s" e);
      Sys.remove path;
      Sys.rmdir dir;
      Printf.printf "smoke %s: %d requests, %d probe runs, %d spans\n" w.name
        (u.u_loop.attempted + t.t_loop.attempted)
        t.t_probes.runs (List.length t.t_spans))
    workloads;
  if not !ok then exit 1

(* ---- compare ------------------------------------------------------------ *)

(* (workload, metric) -> values, from a file of run records, or from a
   directory's runs.jsonl *)
let load path : ((string * string) * float) list =
  let path =
    if Sys.file_exists path && Sys.is_directory path then
      Filename.concat path "runs.jsonl"
    else path
  in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.concat_map (fun line ->
         let field k = function
           | Telemetry.Obj f -> List.assoc_opt k f
           | _ -> None
         in
         let value m =
           match field "value" m with
           | Some (Telemetry.Float v) -> Some v
           | Some (Telemetry.Int v) -> Some (float_of_int v)
           | _ -> None
         in
         match Telemetry.json_of_string line with
         | Ok r -> (
             match (field "workload" r, field "metrics" r) with
             | Some (Telemetry.Str w), Some (Telemetry.Obj ms) ->
                 List.filter_map
                   (fun (name, m) ->
                     Option.map (fun v -> ((w, name), v)) (value m))
                   ms
             | _ -> failwith (path ^ ": not a run record: " ^ line))
         | Error e -> failwith (path ^ ": " ^ e))

let compare_sets a b =
  let ra = load a and rb = load b in
  let values r key =
    List.filter_map (fun (k, v) -> if k = key then Some v else None) r
  in
  let worse = ref false in
  let q xs =
    let q1, _, q3 = Pstats.quartiles xs in
    Printf.sprintf "%.6g [%.6g, %.6g] n=%d" (Pstats.median_f xs) q1 q3
      (List.length xs)
  in
  Printf.printf "%-12s %-16s %-40s %-40s %8s %s\n" "workload" "metric"
    ("A: " ^ a) ("B: " ^ b) "change" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun (m : Metric.e2e) ->
          match (values ra (w.name, m.name), values rb (w.name, m.name)) with
          | [], _ | _, [] -> ()
          | va, vb ->
              let v = Metric.verdict m va vb in
              if v = Metric.Worse then worse := true;
              let ma = Pstats.median_f va and mb = Pstats.median_f vb in
              Printf.printf "%-12s %-16s %-40s %-40s %+7.2f%% %s\n" w.name
                m.name (q va) (q vb)
                (if ma = 0.0 then 0.0 else 100.0 *. (mb -. ma) /. Float.abs ma)
                (Metric.string_of_verdict v))
        Metric.e2e)
    workloads;
  if !worse then exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "compare"; a; b ] -> compare_sets a b
  | "run" :: args -> (
      let o =
        parse
          {
            workload = None;
            seed = 1;
            seconds = nominal_seconds;
            trace = false;
            out = Filename.concat "bench" (Filename.concat "perf" "out");
            smoke = false;
          }
          args
      in
      match (o.smoke, o.workload) with
      | true, _ -> smoke ()
      | false, Some name -> (
          match find_workload name with
          | Some w -> run_one o w
          | None -> fail_usage ("unknown workload " ^ name))
      | false, None -> fail_usage "--workload is required")
  | _ -> fail_usage "no command"
