(** Profiler math: pause-time percentiles and minimum mutator
    utilization (MMU) over sliding windows.

    The math itself lives in {!Jrt.Mmu} — the pacer's auto mode consumes
    it from below [lib/profile] in the dependency order — and is
    re-exported here unchanged; this module adds only the bridge from a
    run report to its pause summary. *)

include Jrt.Mmu

let timeline_of_summary ~(steps : int) (gc : Jrt.Runner.gc_summary option) :
    timeline =
  match gc with
  | None -> { steps; pauses = [] }
  | Some g ->
      let rec zip ats works =
        match ats, works with
        | at :: ats, work :: works -> { at; work } :: zip ats works
        | _, _ -> []
      in
      {
        steps;
        pauses =
          List.filter
            (fun p -> p.work > 0)
            (zip g.Jrt.Runner.pause_steps g.Jrt.Runner.final_pause_works);
      }

type summary = {
  timeline : timeline;
  dist : dist;
  mmu_10 : float;
  utilization : float;
}

let of_report (r : Jrt.Runner.report) : summary =
  let timeline =
    timeline_of_summary ~steps:r.Jrt.Runner.steps r.Jrt.Runner.gc
  in
  let works =
    match r.Jrt.Runner.gc with
    | Some g -> g.Jrt.Runner.final_pause_works
    | None -> []
  in
  {
    timeline;
    dist = dist_of works;
    mmu_10 = mmu timeline ~window:(max 1 (total_time timeline / 10));
    utilization = utilization timeline;
  }
