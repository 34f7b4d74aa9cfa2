(* Heap-state observatory.  See observatory.mli for the contract. *)

module J = Telemetry

let origin_names = [| "none"; "trace"; "log"; "alloc"; "repair" |]
let n_origins = Array.length origin_names
let verdict_names = [| "full-elided"; "del-elided"; "ins-elided"; "both-elided" |]
let n_verdicts = Array.length verdict_names

type cycle_stats = {
  cs_cycle : int;
  cs_collector : string;
  cs_live : int;
  cs_live_units : int;
  cs_sites : int;
  cs_float_objs : int;
  cs_float_units : int;
  cs_float_origin_objs : int array;
  cs_float_origin_units : int array;
  cs_float_verdict_objs : int array;
}

type t = { mutable cycles : cycle_stats list (* newest first *) }

let create () : t = { cycles = [] }
let arm (m : Jrt.Interp.t) : unit = m.Jrt.Interp.track_heap <- true
let cycles (t : t) : cycle_stats list = List.rev t.cycles

(* ---- per-cycle observation --------------------------------------------- *)

let observe (t : t) (m : Jrt.Interp.t) : unit =
  let h = m.Jrt.Interp.heap in
  let census = Census.of_heap h in
  let c_live, c_units = Census.totals census in
  (* exact-reachability oracle sweep: anything the collector kept that the
     oracle cannot reach is floating garbage, attributable by mark origin *)
  let reach = Jrt.Oracle.reachable h (Jrt.Interp.roots m) in
  let float_objs = ref 0 and float_units = ref 0 in
  let o_objs = Array.make n_origins 0 and o_units = Array.make n_origins 0 in
  let floating : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  Jrt.Heap.iter_live h (fun o ->
      if not (Jrt.Oracle.Ids.mem o.Jrt.Heap.id reach) then begin
        incr float_objs;
        let u = Jrt.Heap.size_units o in
        float_units := !float_units + u;
        let og =
          let og = o.Jrt.Heap.origin in
          if og >= 0 && og < n_origins then og else 0
        in
        o_objs.(og) <- o_objs.(og) + 1;
        o_units.(og) <- o_units.(og) + u;
        Hashtbl.replace floating o.Jrt.Heap.id ()
      end);
  (* elision-verdict attribution: a floating object written through an
     elided (half-)barrier during the cycle is counted once per verdict
     class it was written under (classes are not mutually exclusive) *)
  let v_objs = Array.make n_verdicts 0 in
  let seen : (int * int, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (obj, cls) ->
      if
        cls >= 0 && cls < n_verdicts
        && Hashtbl.mem floating obj
        && not (Hashtbl.mem seen (obj, cls))
      then begin
        Hashtbl.add seen (obj, cls) ();
        v_objs.(cls) <- v_objs.(cls) + 1
      end)
    m.Jrt.Interp.elided_write_log;
  let cs =
    {
      cs_cycle = h.Jrt.Heap.gc_cycle - 1;
      cs_collector = m.Jrt.Interp.gc.Jrt.Gc_hooks.name;
      cs_live = h.Jrt.Heap.live_count;
      cs_live_units = h.Jrt.Heap.live_units;
      cs_sites = List.length census;
      cs_float_objs = !float_objs;
      cs_float_units = !float_units;
      cs_float_origin_objs = o_objs;
      cs_float_origin_units = o_units;
      cs_float_verdict_objs = v_objs;
    }
  in
  t.cycles <- cs :: t.cycles;
  (* the event carries census totals AND the heap's own counters so
     `satbelim validate-trace` can check they reconcile *)
  let named names counts =
    List.combine (Array.to_list names) (Array.to_list counts)
  in
  Flight.record
    (Flight.Census
       {
         collector = cs.cs_collector; cycle = cs.cs_cycle; heap_live = cs.cs_live;
         heap_units = cs.cs_live_units;
         fold =
           Some { census_live = c_live; census_units = c_units; sites = cs.cs_sites };
         float =
           Some
             {
               float_objs = !float_objs; float_units = !float_units;
               by_origin = named origin_names o_units;
               by_verdict = named verdict_names v_objs;
             };
       })

(* The light cycle-end hook for always-on census telemetry, no oracle
   sweep or attribution.  The per-site fold is sweep-sized (it walks
   every slot ever allocated), so leaving it on every cycle would cost
   ~5% of a GC-heavy run; like any sampling profiler the tick emits the
   heap's O(1) counters each cycle and folds the full census only every
   [census_period]-th cycle.  This sampled path is what the E19 <3%
   overhead gate measures; {!observe} always runs the full fold. *)
let census_period = 8

let census_tick (m : Jrt.Interp.t) : unit =
  let h = m.Jrt.Interp.heap in
  let cycle = h.Jrt.Heap.gc_cycle - 1 in
  let fold =
    if cycle mod census_period = census_period - 1 then begin
      let census = Census.of_heap h in
      let c_live, c_units = Census.totals census in
      Some
        {
          Flight.census_live = c_live;
          census_units = c_units;
          sites = List.length census;
        }
    end
    else None
  in
  Flight.record
    (Flight.Census
       {
         collector = m.Jrt.Interp.gc.Jrt.Gc_hooks.name; cycle;
         heap_live = h.Jrt.Heap.live_count; heap_units = h.Jrt.Heap.live_units;
         fold; float = None;
       })

(* ---- aggregates --------------------------------------------------------- *)

let float_totals (t : t) : int * int =
  List.fold_left
    (fun (o, u) cs -> (o + cs.cs_float_objs, u + cs.cs_float_units))
    (0, 0) t.cycles

let origin_unit_totals (t : t) : int array =
  let acc = Array.make n_origins 0 in
  List.iter
    (fun cs ->
      Array.iteri
        (fun i u -> acc.(i) <- acc.(i) + u)
        cs.cs_float_origin_units)
    t.cycles;
  acc

let verdict_obj_totals (t : t) : int array =
  let acc = Array.make n_verdicts 0 in
  List.iter
    (fun cs ->
      Array.iteri
        (fun i n -> acc.(i) <- acc.(i) + n)
        cs.cs_float_verdict_objs)
    t.cycles;
  acc

(* ---- dominator retention ------------------------------------------------ *)

type retainer = {
  r_site : int;
  r_cls : Jir.Types.class_name;
  r_retained : int;  (** units retained by objects of this site × class *)
}

type chain_hop = {
  ch_id : int;
  ch_cls : Jir.Types.class_name;
  ch_site : int;
  ch_units : int;
  ch_retained : int;
}

let with_dominators (m : Jrt.Interp.t) :
    Dom.tree * int array (* retained per object id *) =
  let h = m.Jrt.Interp.heap in
  let n = h.Jrt.Heap.next_id in
  let live id =
    id >= 0 && id < n && not (Jrt.Heap.get h id).Jrt.Heap.dead
  in
  let tree =
    Dom.compute ~n
      ~succ:(fun id ->
        if not (live id) then []
        else List.filter live (Jrt.Heap.out_edges (Jrt.Heap.get h id)))
      ~roots:(List.filter live (Jrt.Interp.roots m))
  in
  let ret =
    Dom.retained tree ~units:(fun id ->
        if live id then Jrt.Heap.size_units (Jrt.Heap.get h id) else 0)
  in
  (tree, ret)

let retainers (m : Jrt.Interp.t) : retainer list =
  let h = m.Jrt.Interp.heap in
  let _, ret = with_dominators m in
  let tbl : (int * Jir.Types.class_name, int ref) Hashtbl.t =
    Hashtbl.create 64
  in
  Jrt.Heap.iter_live h (fun o ->
      let key = (o.Jrt.Heap.site, o.Jrt.Heap.cls) in
      let r =
        match Hashtbl.find_opt tbl key with
        | Some r -> r
        | None ->
            let r = ref 0 in
            Hashtbl.add tbl key r;
            r
      in
      r := !r + ret.(o.Jrt.Heap.id));
  Hashtbl.fold
    (fun (site, cls) r acc ->
      { r_site = site; r_cls = cls; r_retained = !r } :: acc)
    tbl []
  |> List.sort (fun a b ->
         match compare b.r_retained a.r_retained with
         | 0 -> (
             match
               compare (Jrt.Sitemap.name a.r_site) (Jrt.Sitemap.name b.r_site)
             with
             | 0 -> compare a.r_cls b.r_cls
             | c -> c)
         | c -> c)

let retainer_chains (m : Jrt.Interp.t) ~(top : int) : chain_hop list list =
  let h = m.Jrt.Interp.heap in
  let tree, ret = with_dominators m in
  let heavy = ref [] in
  Jrt.Heap.iter_live h (fun o -> heavy := o :: !heavy);
  let heavy =
    List.sort
      (fun (a : Jrt.Heap.obj) b ->
        match compare ret.(b.Jrt.Heap.id) ret.(a.Jrt.Heap.id) with
        | 0 -> compare a.Jrt.Heap.id b.Jrt.Heap.id
        | c -> c)
      !heavy
  in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  List.map
    (fun (o : Jrt.Heap.obj) ->
      List.map
        (fun id ->
          let o = Jrt.Heap.get h id in
          {
            ch_id = id;
            ch_cls = o.Jrt.Heap.cls;
            ch_site = o.Jrt.Heap.site;
            ch_units = Jrt.Heap.size_units o;
            ch_retained = ret.(id);
          })
        (List.rev (Dom.chain tree o.Jrt.Heap.id)))
    (take top heavy)

(* ---- snapshot export and diff ------------------------------------------ *)

let census_row_json (r : Census.row) : J.json =
  J.Obj
    [
      ("site", J.Str (Jrt.Sitemap.name r.Census.site));
      ("class", J.Str r.Census.cls);
      ("live", J.Int r.Census.live);
      ("units", J.Int r.Census.units);
      ( "ages",
        J.List (Array.to_list (Array.map (fun n -> J.Int n) r.Census.ages)) );
    ]

let cycle_json (cs : cycle_stats) : J.json =
  J.Obj
    ([
       ("cycle", J.Int cs.cs_cycle);
       ("collector", J.Str cs.cs_collector);
       ("live", J.Int cs.cs_live);
       ("live_units", J.Int cs.cs_live_units);
       ("sites", J.Int cs.cs_sites);
       ("float_objs", J.Int cs.cs_float_objs);
       ("float_units", J.Int cs.cs_float_units);
     ]
    @ List.mapi
        (fun i name -> ("float_" ^ name, J.Int cs.cs_float_origin_units.(i)))
        (Array.to_list origin_names)
    @ List.mapi
        (fun i name -> ("float_vd_" ^ name, J.Int cs.cs_float_verdict_objs.(i)))
        (Array.to_list verdict_names))

let snapshot (t : t) (m : Jrt.Interp.t) : J.json =
  let h = m.Jrt.Interp.heap in
  let census = Census.of_heap h in
  let rets = retainers m in
  J.Obj
    [
      ( "heap_snapshot",
        J.Obj
          [
            ("version", J.Int 1);
            ("collector", J.Str m.Jrt.Interp.gc.Jrt.Gc_hooks.name);
            ("gc_cycle", J.Int h.Jrt.Heap.gc_cycle);
            ("live", J.Int h.Jrt.Heap.live_count);
            ("live_units", J.Int h.Jrt.Heap.live_units);
            ("census", J.List (List.map census_row_json census));
            ( "retained",
              J.List
                (List.map
                   (fun r ->
                     J.Obj
                       [
                         ("site", J.Str (Jrt.Sitemap.name r.r_site));
                         ("class", J.Str r.r_cls);
                         ("retained_units", J.Int r.r_retained);
                       ])
                   rets) );
            ("float_cycles", J.List (List.map cycle_json (cycles t)));
          ] );
    ]

(* ---- snapshot diffing --------------------------------------------------- *)

let field name = function
  | J.Obj kvs -> List.assoc_opt name kvs
  | _ -> None

let as_int = function Some (J.Int n) -> Some n | _ -> None
let as_str = function Some (J.Str s) -> Some s | _ -> None

(* (site, class) -> (live, units) from a parsed snapshot *)
let census_of_snapshot (j : J.json) :
    ((string * string) * (int * int)) list option =
  match field "heap_snapshot" j with
  | None -> None
  | Some body -> (
      match field "census" body with
      | Some (J.List rows) ->
          let parse r =
            match
              ( as_str (field "site" r),
                as_str (field "class" r),
                as_int (field "live" r),
                as_int (field "units" r) )
            with
            | Some site, Some cls, Some live, Some units ->
                Some ((site, cls), (live, units))
            | _ -> None
          in
          let parsed = List.filter_map parse rows in
          if List.length parsed = List.length rows then Some parsed else None
      | _ -> None)

let snapshot_totals (j : J.json) : (int * int * int) option =
  match field "heap_snapshot" j with
  | None -> None
  | Some body -> (
      match
        ( as_int (field "gc_cycle" body),
          as_int (field "live" body),
          as_int (field "live_units" body) )
      with
      | Some c, Some l, Some u -> Some (c, l, u)
      | _ -> None)

type diff_row = {
  dr_site : string;
  dr_cls : string;
  dr_live : int * int;  (** old, new *)
  dr_units : int * int;  (** old, new *)
}

let diff (old_ : J.json) (new_ : J.json) : (diff_row list, string) result =
  match (census_of_snapshot old_, census_of_snapshot new_) with
  | None, _ -> Error "old snapshot: not a heap_snapshot"
  | _, None -> Error "new snapshot: not a heap_snapshot"
  | Some o, Some n ->
      let keys =
        List.sort_uniq compare (List.map fst o @ List.map fst n)
      in
      let look rows k =
        Option.value (List.assoc_opt k rows) ~default:(0, 0)
      in
      let rows =
        List.filter_map
          (fun k ->
            let ol, ou = look o k and nl, nu = look n k in
            if ol = nl && ou = nu then None
            else
              Some
                {
                  dr_site = fst k;
                  dr_cls = snd k;
                  dr_live = (ol, nl);
                  dr_units = (ou, nu);
                })
          keys
      in
      (* biggest absolute unit growth first; names break ties *)
      Ok
        (List.sort
           (fun a b ->
             let da = abs (snd a.dr_units - fst a.dr_units)
             and db = abs (snd b.dr_units - fst b.dr_units) in
             match compare db da with
             | 0 -> compare (a.dr_site, a.dr_cls) (b.dr_site, b.dr_cls)
             | c -> c)
           rows)

(* ---- rendering ---------------------------------------------------------- *)

let pct num den =
  if den = 0 then "0.0"
  else Printf.sprintf "%.1f" (100.0 *. float_of_int num /. float_of_int den)

let render_census ?(top = 10) (rows : Census.row list) : string =
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  let shown = take top rows in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Flight.render_table
       ([ "site"; "class"; "live"; "units" ]
       @ Array.to_list Census.age_bucket_names)
       (List.map
          (fun (r : Census.row) ->
            [
              Jrt.Sitemap.name r.Census.site;
              r.Census.cls;
              string_of_int r.Census.live;
              string_of_int r.Census.units;
            ]
            @ List.map string_of_int (Array.to_list r.Census.ages))
          shown));
  let rest = List.length rows - List.length shown in
  if rest > 0 then
    Buffer.add_string buf
      (Printf.sprintf "  ... and %d more site rows\n" rest);
  Buffer.contents buf

let render_retainers ?(top = 10) (m : Jrt.Interp.t) : string =
  let rets = retainers m in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Flight.render_table
       [ "site"; "class"; "retained_units" ]
       (List.map
          (fun r ->
            [
              Jrt.Sitemap.name r.r_site;
              r.r_cls;
              string_of_int r.r_retained;
            ])
          (take top rets)));
  let chains = retainer_chains m ~top:(min top 5) in
  if chains <> [] then begin
    Buffer.add_string buf "\ntop retainer chains (root -> retained object):\n";
    List.iter
      (fun chain ->
        let hops =
          List.map
            (fun h ->
              Printf.sprintf "%s#%d(%s, %du ret %du)" h.ch_cls h.ch_id
                (Jrt.Sitemap.name h.ch_site)
                h.ch_units h.ch_retained)
            chain
        in
        Buffer.add_string buf ("  " ^ String.concat " <- " (List.rev hops));
        Buffer.add_char buf '\n')
      chains
  end;
  Buffer.contents buf

let render_float (t : t) : string =
  let buf = Buffer.create 512 in
  (match cycles t with
  | [] -> Buffer.add_string buf "  (no completed GC cycle observed)\n"
  | cs ->
      Buffer.add_string buf
        (Flight.render_table
           ([ "cycle"; "live_u"; "float_o"; "float_u"; "float%" ]
           @ List.map
               (fun n -> n ^ "_u")
               (List.tl (Array.to_list origin_names)))
           (List.map
              (fun c ->
                [
                  string_of_int c.cs_cycle;
                  string_of_int c.cs_live_units;
                  string_of_int c.cs_float_objs;
                  string_of_int c.cs_float_units;
                  pct c.cs_float_units c.cs_live_units;
                ]
                @ List.map string_of_int
                    (List.tl (Array.to_list c.cs_float_origin_units)))
              cs));
      let vt = verdict_obj_totals t in
      if Array.exists (fun n -> n > 0) vt then begin
        Buffer.add_string buf
          "floating objects written through elided barriers, by verdict:\n";
        Array.iteri
          (fun i n ->
            if n > 0 then
              Buffer.add_string buf
                (Printf.sprintf "  %s: %d\n" verdict_names.(i) n))
          vt
      end);
  Buffer.contents buf

let render_diff ~(old_name : string) ~(new_name : string) (old_ : J.json)
    (new_ : J.json) : (string, string) result =
  match diff old_ new_ with
  | Error e -> Error e
  | Ok rows ->
      let buf = Buffer.create 512 in
      (match (snapshot_totals old_, snapshot_totals new_) with
      | Some (oc, ol, ou), Some (nc, nl, nu) ->
          Buffer.add_string buf
            (Printf.sprintf
               "%s: cycle %d, %d live (%d units)\n%s: cycle %d, %d live (%d \
                units)\ngrowth: %+d objects, %+d units\n\n"
               old_name oc ol ou new_name nc nl nu (nl - ol) (nu - ou))
      | _ -> ());
      if rows = [] then Buffer.add_string buf "no per-site census changes\n"
      else
        Buffer.add_string buf
          (Flight.render_table
             [ "site"; "class"; "live"; "units"; "d_units" ]
             (List.map
                (fun r ->
                  [
                    r.dr_site;
                    r.dr_cls;
                    Printf.sprintf "%d->%d" (fst r.dr_live) (snd r.dr_live);
                    Printf.sprintf "%d->%d" (fst r.dr_units) (snd r.dr_units);
                    Printf.sprintf "%+d" (snd r.dr_units - fst r.dr_units);
                  ])
                rows));
      Ok (Buffer.contents buf)
