(* The §4.3 pairwise-swap idiom end to end: the db workload's bubble
   sort swaps elements of a static object array
   (temp = a[j]; a[j] = a[j+1]; a[j+1] = temp).

   Taken as a whole a swap only permutes the array's existing elements,
   so neither overwritten pre-value needs SATB logging — but descending
   scan order alone cannot make the elision sound, because mid-window
   the displaced element lives only in a local the marker never scans.

   The retrace collector closes that gap with an optimistic
   tracing-state protocol: each elided store performs a cheap per-object
   tracing-state check and, if the array's concurrent scan may be
   incomplete, enqueues it for an atomic whole-object re-scan before
   remark.  The swap window itself is safepoint-free, so the re-scan
   always observes a consistent permutation.

   This example runs db three ways:
   1. swap analysis off, retrace collector — the baseline;
   2. swap analysis on, retrace collector — both swap barriers gone,
      zero violations, the oracle confirming the protocol is sound;
   3. swap analysis on but the plain SATB collector — the same elision
      is now unsound, and for adversarial schedules the oracle reports
      snapshot violations.

   Run with: dune exec examples/retrace_swap.exe *)

let describe name (r : Jrt.Runner.report) =
  let g = Option.get r.gc in
  Fmt.pr
    "%-28s array elided %4d/%4d  checks=%-4d retraces=%-2d violations=%d@."
    name r.dyn.array_elided r.dyn.array_execs
    r.machine.Jrt.Interp.retrace_checks
    (List.fold_left ( + ) 0 g.retraced)
    g.total_violations

let run ~swap ~gc ~gc_period =
  let cw = Harness.Exp.compile ~move_down:true ~swap Workloads.Db.t in
  Harness.Exp.run ~gc ~gc_period cw

(* db is single-threaded, so the adversarial knob is the collector
   pacing: sweeping the mutator-instructions-per-increment period moves
   the concurrent scan of the index array across every possible
   alignment with the sort's swap windows. *)
let sweep ~swap ~gc =
  let violations = ref 0 and retraces = ref 0 in
  for p = 1 to 200 do
    let r = run ~swap ~gc ~gc_period:p in
    match r.gc with
    | Some g ->
        violations := !violations + g.total_violations;
        retraces := !retraces + List.fold_left ( + ) 0 g.retraced
    | None -> ()
  done;
  (!violations, !retraces)

let () =
  let retrace =
    Jrt.Runner.make_retrace ~steps_per_increment:1
      ~pacing:(Jrt.Pacer.config_of_trigger 8) ()
  in
  Fmt.pr "db under the retrace collector:@.";
  describe "no swap analysis" (run ~swap:false ~gc:retrace ~gc_period:104);
  describe "swap analysis" (run ~swap:true ~gc:retrace ~gc_period:104);
  let v, rt = sweep ~swap:true ~gc:retrace in
  Fmt.pr
    "swap under retrace, 200 collector pacings: %d violations, %d forced \
     re-scans@."
    v rt;
  Fmt.pr
    "@.Same elision under plain SATB (no tracing-state protocol) — the@.\
     oracle catches the pacings where the half-finished swap hides a@.\
     live element from the marker:@.";
  let satb =
    Jrt.Runner.make_satb ~steps_per_increment:1
      ~pacing:(Jrt.Pacer.config_of_trigger 8) ()
  in
  let v, _ = sweep ~swap:true ~gc:satb in
  Fmt.pr "swap under plain SATB, 200 collector pacings: %d violations@." v
