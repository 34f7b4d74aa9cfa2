(** E8 — the §4.3 "array rearrangements" extension, implemented for the
    delete-by-shift (move-down) idiom.

    The paper observes that jbb's hottest uneliminated store sites sit in
    loops that delete an element from an object array by moving every
    later element down one slot: taken as a whole such a loop overwrites
    only one reference value, so with collector cooperation only that one
    value needs logging.  It proposes eliminating the loop's barriers when
    "the direction of collector array scanning agrees with the direction
    of object movement".

    Our implementation: the clear-first form of the idiom (null the
    deleted slot — that store keeps its barrier and logs the deleted
    value — then shift down), a shift-chain dataflow domain over
    must-identified arrays, a single-mutator gate (§4.3's multi-mutator
    caveat), and a SATB marker contracted to scan object arrays in
    descending index order, in bounded chunks.  The soundness argument is
    checked end to end by the oracle under adversarial schedules. *)

type row = {
  bench : string;
  elim_base_pct : float;  (** mode A *)
  elim_md_pct : float;  (** mode A + move-down *)
  array_base_pct : float;
  array_md_pct : float;
  violations : int;  (** SATB violations with move-down elision active *)
}

let pct num den =
  if den = 0 then 0.0 else 100.0 *. float_of_int num /. float_of_int den

let measure_one (w : Workloads.Spec.t) : row =
  let go ~move_down =
    let cw = Exp.compile ~move_down w in
    let r =
      Exp.run
        ~gc:(Jrt.Runner.make_satb ~pacing:(Jrt.Pacer.config_of_trigger 24)
          ~steps_per_increment:8 ())
        cw
    in
    let v = match r.gc with Some g -> g.total_violations | None -> 0 in
    (r.dyn, v)
  in
  let base, _ = go ~move_down:false in
  let md, violations = go ~move_down:true in
  {
    bench = w.name;
    elim_base_pct = pct base.elided_execs base.total_execs;
    elim_md_pct = pct md.elided_execs md.total_execs;
    array_base_pct = pct base.array_elided base.array_execs;
    array_md_pct = pct md.array_elided md.array_execs;
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
          Tablefmt.f1 r.elim_md_pct;
          Tablefmt.f1 r.array_base_pct;
          Tablefmt.f1 r.array_md_pct;
          string_of_int r.violations;
        ])
      rows
  in
  Tablefmt.render
    ~header:
      [
        "benchmark";
        "A elim%";
        "A+md elim%";
        "A array%";
        "A+md array%";
        "violations";
      ]
    ~align:[ Tablefmt.L; R; R; R; R; R ]
    body

let print () = print_endline (render (measure ()))
