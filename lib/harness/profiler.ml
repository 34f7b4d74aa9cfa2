(** E14 — hot-site walkthrough on [db] — see profiler.mli. *)

type result = {
  workload : string;
  baseline : Profile.Attr.t;
  full : Profile.Attr.t;
  diff : Profile.Gate.outcome;
}

let profile_run ~(label : string) ~(gc : Jrt.Runner.gc_choice)
    (cw : Exp.compiled_workload) : Profile.Attr.t =
  let r = Exp.run ~gc ~guards:true cw in
  (match r.Jrt.Runner.gc with
  | Some g when g.Jrt.Runner.total_violations > 0 ->
      Fmt.failwith "%s/%s: marking invariant violated" cw.Exp.workload.name
        label
  | Some _ | None -> ());
  let p =
    Profile.Attr.of_report ~workload:cw.Exp.workload.name ~gc:"retrace" r
  in
  (match Profile.Attr.reconciles p r with
  | Ok () -> ()
  | Error e ->
      Fmt.failwith "%s/%s: profile does not reconcile: %s"
        cw.Exp.workload.name label e);
  p

let measure ?(workload = Workloads.Db.t) () : result =
  let gc = Jrt.Runner.make_retrace ~pacing:(Jrt.Pacer.config_of_trigger 24) () in
  let baseline = profile_run ~label:"plain" ~gc (Exp.compile workload) in
  let full =
    profile_run ~label:"full" ~gc
      (Exp.compile ~null_or_same:true ~move_down:true ~swap:true
         ~summaries:true workload)
  in
  (* the "diff" direction is full-vs-baseline, so an *improvement* shows
     up as a (desired) elision-rate gain, not a regression *)
  let diff =
    match
      Profile.Gate.diff_json
        ~old_:(Profile.Attr.to_json baseline)
        (Profile.Attr.to_json full)
    with
    | Ok o -> o
    | Error e -> Fmt.failwith "%s: full vs plain: %s" workload.name e
  in
  { workload = workload.Workloads.Spec.name; baseline; full; diff }

let to_json (r : result) : Telemetry.json =
  Telemetry.List
    (List.map
       (fun (variant, p) ->
         Profile.Attr.summary_row
           ~ids:[ ("workload", Str r.workload); ("variant", Str variant) ]
           p)
       [ ("plain", r.baseline); ("full", r.full) ])

let render (r : result) : string =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "-- %s: plain mode-A analysis --\n" r.workload);
  Buffer.add_string b (Profile.Attr.render ~top:5 r.baseline);
  Buffer.add_string b
    (Printf.sprintf "\n-- %s: + null-or-same, move-down, swap, summaries --\n"
       r.workload);
  Buffer.add_string b (Profile.Attr.render ~top:5 r.full);
  Buffer.add_string b "\n-- full vs plain --\n";
  Buffer.add_string b (Profile.Gate.render r.diff);
  Buffer.contents b
