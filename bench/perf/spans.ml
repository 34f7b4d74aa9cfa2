(* Span and count recorder for the traced run.  Spans are recorded from
   the benchmark's own code around each public call it makes into a
   layer, kept in memory, and written out once at exit as Chrome trace
   events.  A duration a layer already reports (Driver's per-pass seconds,
   Runner's loop_s and gc_s) becomes a child span of the call that
   reported it.  Counts a call returns (steps, sites, cycles, ...) are
   recorded beside its spans.

   Both are kept in Bigarrays, outside the OCaml heap.  A traced run
   records hundreds of thousands of them; held in the heap, they grew a
   15-second mutator run's heap from 1.1 to 14 million words, so the
   traced loop no longer collected garbage as the untraced one does. *)

type phase =
  | Setup  (** the set-up before the timed loop *)
  | Request  (** the timed requests *)
  | Sweep  (** runs of the collectors the requests do not use *)
  | Pairs  (** interleaved A/B pairs: barrier, flight, exec, tracing *)

let string_of_phase = function
  | Setup -> "setup"
  | Request -> "request"
  | Sweep -> "sweep"
  | Pairs -> "pairs"

type kind = {
  phase : phase;
  label : string;  (** the request kind *)
  collector : string;  (** "" for compile kinds *)
}

(* what a recorded call belongs to: an interned kind and the request
   index, -1 outside the timed loop *)
type ctx = { kind : int; req : int }

(* ---- storage ---------------------------------------------------------- *)

(* [stride] values per entry, in one growable array outside the heap *)
type ('a, 'b) column = {
  mutable data : ('a, 'b, Bigarray.c_layout) Bigarray.Array1.t;
  mutable len : int;
  stride : int;
}

let column kind stride =
  {
    data = Bigarray.Array1.create kind Bigarray.c_layout (4096 * stride);
    len = 0;
    stride;
  }

(* the offset of a new entry's first value *)
let reserve c =
  let open Bigarray in
  let cap = Array1.dim c.data in
  if (c.len + 1) * c.stride > cap then begin
    let d = Array1.create (Array1.kind c.data) c_layout (2 * cap) in
    Array1.blit c.data (Array1.sub d 0 cap);
    c.data <- d
  end;
  c.len <- c.len + 1;
  (c.len - 1) * c.stride

(* interned strings and kinds *)
type 'a interned = { ids : ('a, int) Hashtbl.t; mutable values : 'a array }

let interned () = { ids = Hashtbl.create 64; values = [||] }

let intern t v =
  match Hashtbl.find_opt t.ids v with
  | Some i -> i
  | None ->
      let i = Array.length t.values in
      Hashtbl.add t.ids v i;
      t.values <- Array.append t.values [| v |];
      i

let names : string interned = interned ()
let kinds : kind interned = interned ()

(* per span: t0, t1; and parent, name, kind, req *)
let times = column Bigarray.float64 2
let span_ints = column Bigarray.int 4

(* per count: name, kind, value *)
let count_ints = column Bigarray.int 3

let ctx phase ~req ~label ~collector =
  { kind = intern kinds { phase; label; collector }; req }

let reset () =
  times.len <- 0;
  span_ints.len <- 0;
  count_ints.len <- 0

(* ---- recording -------------------------------------------------------- *)

(* a span's id is its index plus one; 0 is no parent *)
let open_span (c : ctx) ~parent name t0 : int =
  let f = reserve times and i = reserve span_ints in
  times.data.{f} <- t0;
  times.data.{f + 1} <- t0;
  span_ints.data.{i} <- parent;
  span_ints.data.{i + 1} <- intern names name;
  span_ints.data.{i + 2} <- c.kind;
  span_ints.data.{i + 3} <- c.req;
  span_ints.len

let close_span id t1 = times.data.{(2 * (id - 1)) + 1} <- t1

(* Time [f]; it receives the new span's id so it can parent children. *)
let call c ~parent name (f : int -> 'a) : 'a =
  let id = open_span c ~parent name (Unix.gettimeofday ()) in
  Fun.protect ~finally:(fun () -> close_span id (Unix.gettimeofday ())) (fun () ->
      f id)

(* A child from a duration the layer reported.  Only the duration is
   known, so the child is placed at [start]. *)
let child c ~parent name ~start dur : int =
  let id = open_span c ~parent name start in
  close_span id (start +. dur);
  id

let count (c : ctx) name value =
  let i = reserve count_ints in
  count_ints.data.{i} <- intern names name;
  count_ints.data.{i + 1} <- c.kind;
  count_ints.data.{i + 2} <- value

(* ---- reading back, once the run is over --------------------------------- *)

type span = {
  id : int;
  name : string;
  t0 : float;
  t1 : float;
  parent : int;  (** 0 for a root *)
  kind : kind;
  req : int;
}

let spans () : span list =
  List.init span_ints.len (fun k ->
      let i = 4 * k in
      {
        id = k + 1;
        name = names.values.(span_ints.data.{i + 1});
        t0 = times.data.{2 * k};
        t1 = times.data.{(2 * k) + 1};
        parent = span_ints.data.{i};
        kind = kinds.values.(span_ints.data.{i + 2});
        req = span_ints.data.{i + 3};
      })

type count = { c_name : string; c_kind : kind; value : int }

let counts () : count list =
  List.init count_ints.len (fun k ->
      let i = 3 * k in
      {
        c_name = names.values.(count_ints.data.{i});
        c_kind = kinds.values.(count_ints.data.{i + 1});
        value = count_ints.data.{i + 2};
      })

(* Each span with its self time: its duration minus its children's. *)
let with_self (spans : span list) : (span * float) list =
  let kids = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace kids s.parent
          ((s.t1 -. s.t0)
          +. Option.value (Hashtbl.find_opt kids s.parent) ~default:0.0))
    spans;
  let covered s = Option.value (Hashtbl.find_opt kids s.id) ~default:0.0 in
  List.map (fun s -> (s, s.t1 -. s.t0 -. covered s)) spans

(* Write the spans as Chrome "complete" events (microseconds since
   [origin]), with [extra] fields appended to the top-level object. *)
let write_chrome path ~origin (spans : span list)
    (extra : (string * Telemetry.json) list) : unit =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      output_string oc
        (Telemetry.json_to_string
           (Telemetry.Obj
              [
                ("name", Telemetry.Str s.name);
                ("cat", Telemetry.Str (string_of_phase s.kind.phase));
                ("ph", Telemetry.Str "X");
                ("ts", Telemetry.Float ((s.t0 -. origin) *. 1e6));
                ("dur", Telemetry.Float ((s.t1 -. s.t0) *. 1e6));
                ("pid", Telemetry.Int 1);
                ("tid", Telemetry.Int 1);
                ( "args",
                  Telemetry.Obj
                    [
                      ("id", Telemetry.Int s.id);
                      ("parent", Telemetry.Int s.parent);
                      ("req", Telemetry.Int s.req);
                      ("kind", Telemetry.Str s.kind.label);
                    ] );
              ])))
    spans;
  output_string oc "\n]";
  List.iter
    (fun (k, v) ->
      output_string oc
        (Printf.sprintf ",\n%s:%s"
           (Telemetry.json_to_string (Telemetry.Str k))
           (Telemetry.json_to_string v)))
    extra;
  output_string oc "}\n";
  close_out oc
