(** E10 — the §4.3 pairwise-swap extension under the retrace collector.

    The paper's §4.3 closes with the rearrangement idiom our move-down
    experiment deliberately leaves on the table: a pairwise swap
    ([temp = a[j]; a[j] = a[j+1]; a[j+1] = temp]) overwrites two slots
    but, taken as a whole, only permutes the array's existing elements —
    no reference leaves the array, so logging either pre-value is
    redundant {e provided} the collector can tolerate a concurrent scan
    observing the half-finished window.  Descending scan order alone
    cannot make that sound (the displaced element lives only in a local
    mid-window), which is why plain move-down keeps both barriers.

    The retrace collector makes the elision sound with an optimistic
    tracing-state protocol: each unlogged (elided) store performs a cheap
    per-object tracing-state check and, if the array's scan may be
    incomplete, enqueues it for an atomic re-scan before remark.  The
    swap window itself is a safepoint-free region — no collector work
    intervenes between the pair's two stores — so the re-scan always
    observes a consistent permutation.

    This experiment measures what that buys: array-store elimination on
    the Table 1 workloads with and without the swap extension, both run
    under the retrace collector, together with the number of forced
    re-scans (the protocol's cost) and the oracle's SATB-violation count
    (zero = the snapshot invariant held). *)

type row = {
  bench : string;
  elim_base_pct : float;  (** mode A + move-down *)
  elim_swap_pct : float;  (** mode A + move-down + swap *)
  array_base_pct : float;
  array_swap_pct : float;
  retraces : int;  (** forced re-scans with swap elision active *)
  checks : int;  (** dynamic tracing-state checks executed *)
  violations : int;  (** SATB violations with swap elision active *)
}

let pct num den =
  if den = 0 then 0.0 else 100.0 *. float_of_int num /. float_of_int den

let measure_one (w : Workloads.Spec.t) : row =
  let go ~swap =
    let cw = Exp.compile ~move_down:true ~swap w in
    let r =
      Exp.run
        ~gc:(Jrt.Runner.make_retrace ~pacing:(Jrt.Pacer.config_of_trigger 24)
          ~steps_per_increment:8 ())
        cw
    in
    let v, rt =
      match r.gc with
      | Some g -> (g.total_violations, List.fold_left ( + ) 0 g.retraced)
      | None -> (0, 0)
    in
    (r.dyn, v, rt, r.machine.Jrt.Interp.retrace_checks)
  in
  let base, _, _, _ = go ~swap:false in
  let sw, violations, retraces, checks = go ~swap:true in
  {
    bench = w.name;
    elim_base_pct = pct base.elided_execs base.total_execs;
    elim_swap_pct = pct sw.elided_execs sw.total_execs;
    array_base_pct = pct base.array_elided base.array_execs;
    array_swap_pct = pct sw.array_elided sw.array_execs;
    retraces;
    checks;
    violations;
  }

let measure () : row list =
  List.map measure_one Workloads.Registry.table1

let render (rows : row list) : string =
  let body =
    List.map
      (fun r ->
        [
          r.bench;
          Tablefmt.f1 r.elim_base_pct;
          Tablefmt.f1 r.elim_swap_pct;
          Tablefmt.f1 r.array_base_pct;
          Tablefmt.f1 r.array_swap_pct;
          string_of_int r.retraces;
          string_of_int r.checks;
          string_of_int r.violations;
        ])
      rows
  in
  Tablefmt.render
    ~header:
      [
        "benchmark";
        "A+md elim%";
        "+swap elim%";
        "A+md array%";
        "+swap array%";
        "retraces";
        "checks";
        "violations";
      ]
    ~align:[ Tablefmt.L; R; R; R; R; R; R; R ]
    body

let print () = print_endline (render (measure ()))
