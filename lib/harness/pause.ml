(** E5 — pause distribution and mutator utilization for all three
    collectors (§1 and §4.5).

    All collectors run with the same concurrent-increment budget on the
    same workload; we compare the work done inside the stop-the-world
    pauses.  The paper's claim: SATB remark pauses (drain the leftover
    log buffers) are often an order of magnitude smaller than
    incremental-update final pauses (rescan roots + dirty cards + trace
    everything allocated during the cycle).  The retrace collector rides
    along so its swap-elision re-scans show up in the same distribution
    view. *)

type coll = {
  collector : string;
  cycles : int;
  pauses : Profile.Stats.dist;
  mmu_10 : float;
  utilization : float;
}

type row = { bench : string; collectors : coll list; ratio : float }

let find (r : row) (name : string) : coll =
  List.find (fun c -> c.collector = name) r.collectors

(* every collector cycles every 16 allocations and marks 16 steps per
   increment *)
let pacing = Jrt.Pacer.config_of_trigger 16
let steps_per_increment = 16

let measure_one (w : Workloads.Spec.t) : row =
  (* The SATB run uses the analysis-directed elision policy; the
     incremental-update run keeps every barrier, because pre-null elision
     is an SATB-specific optimization: a card-marking collector must hear
     about stores of fresh pointers into already-scanned objects even when
     the overwritten value was null.  The retrace run adds the §4.3
     swap/move-down elisions the retrace protocol exists for. *)
  let go (coll : Jrt.Runner.collector) (use_policy, swap) =
    let name = Jrt.Runner.collector_name coll in
    let cw =
      if swap then Exp.compile ~move_down:true ~swap:true w else Exp.compile w
    in
    let r =
      Exp.run ~use_policy
        ~gc:(Jrt.Runner.make ~steps_per_increment ~pacing coll)
        cw
    in
    let cycles =
      match r.Jrt.Runner.gc with
      | Some g ->
          if g.Jrt.Runner.total_violations > 0 then
            Fmt.failwith "%s/%s: marking invariant violated" w.name name;
          g.Jrt.Runner.cycles
      | None -> 0
    in
    let s = Profile.Stats.of_report r in
    {
      collector = name;
      cycles;
      pauses = s.Profile.Stats.dist;
      mmu_10 = s.Profile.Stats.mmu_10;
      utilization = s.Profile.Stats.utilization;
    }
  in
  (* elision policy and the swap/move-down compile, per collector; the
     hybrid barrier has its own experiment (E15) *)
  let settings : Jrt.Runner.collector -> (bool * bool) option = function
    | Satb -> Some (true, false)
    | Incr -> Some (false, false)
    | Retrace -> Some (true, true)
    | Hybrid -> None
  in
  let collectors =
    List.filter_map
      (fun c -> Option.map (go c) (settings c))
      Jrt.Runner.collectors
  in
  let max_pause name =
    (List.find (fun c -> c.collector = name) collectors).pauses
      .Profile.Stats.d_max
  in
  {
    bench = w.name;
    collectors;
    ratio =
      (* a zero SATB pause is reported as if it cost one unit *)
      float_of_int (max_pause "incr")
      /. float_of_int (max 1 (max_pause "satb"));
  }

let measure () : row list = List.map measure_one Workloads.Registry.table1

let to_json (rows : row list) : Telemetry.json =
  Telemetry.List
    (List.concat_map
       (fun r ->
         List.map
           (fun c ->
             let d = c.pauses in
             Telemetry.Obj
               [
                 ("bench", Str r.bench);
                 ("collector", Str c.collector);
                 ("cycles", Int c.cycles);
                 ("pauses", Int d.Profile.Stats.d_count);
                 ("p50", Int d.Profile.Stats.d_p50);
                 ("p90", Int d.Profile.Stats.d_p90);
                 ("p99", Int d.Profile.Stats.d_p99);
                 ("max", Int d.Profile.Stats.d_max);
                 ("mmu_10", Float c.mmu_10);
                 ("utilization", Float c.utilization);
               ])
           r.collectors)
       rows)

let render (rows : row list) : string =
  let body =
    List.concat_map
      (fun r ->
        List.map
          (fun c ->
            let d = c.pauses in
            [
              r.bench;
              c.collector;
              string_of_int c.cycles;
              string_of_int d.Profile.Stats.d_count;
              string_of_int d.Profile.Stats.d_p50;
              string_of_int d.Profile.Stats.d_p90;
              string_of_int d.Profile.Stats.d_p99;
              string_of_int d.Profile.Stats.d_max;
              Printf.sprintf "%.3f" c.mmu_10;
              Printf.sprintf "%.3f" c.utilization;
              (if c.collector = "incr" then
                 if Float.is_nan r.ratio then "-"
                 else Printf.sprintf "%.1fx" r.ratio
               else "");
            ])
          r.collectors)
      rows
  in
  Tablefmt.render
    ~header:
      [
        "benchmark";
        "collector";
        "cycles";
        "pauses";
        "p50";
        "p90";
        "p99";
        "max";
        "mmu@10%";
        "util";
        "incr/satb";
      ]
    ~align:[ Tablefmt.L; L; R; R; R; R; R; R; R; R; R ]
    body
