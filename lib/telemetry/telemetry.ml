(** Telemetry plumbing: JSON, a monotonic clock, the structured JSONL
    event stream behind [--trace] and its schema validation, the Chrome
    trace-event exporter, and file writing.  It holds no numbers: a run's
    counts live in its [Runner.report] and a compile's in its
    [Driver.compiled], and [--metrics] is rendered from those values.

    Events are recorded only while {e armed} — an in-memory recorder
    enabled ({!set_recording}) or a JSONL sink attached ({!attach_sink})
    — so the hot paths pay nothing by default.  Runtime events reach the
    stream through the flight recorder ([Flight.record]), which renders
    each typed event with one schema; only the run envelope and analysis
    passes call {!emit} directly.

    Every emitted event carries a monotonic wall-clock timestamp
    ({!now_s}: seconds since process start, clamped to never decrease)
    and a process-wide sequence number, so traces are totally ordered
    even when two events land in the same clock tick. *)

(* ---- JSON --------------------------------------------------------------- *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

let buf_add_escaped b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

(** Shortest float form that still round-trips our measurements; always
    contains a ['.'], ['e'] or [n]/[i] so readers keep the number a
    float. *)
let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.12g" f

let rec buf_add_json b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float f -> Buffer.add_string b (float_repr f)
  | Str s ->
      Buffer.add_char b '"';
      buf_add_escaped b s;
      Buffer.add_char b '"'
  | List xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          buf_add_json b x)
        xs;
      Buffer.add_char b ']'
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          buf_add_escaped b k;
          Buffer.add_string b "\":";
          buf_add_json b v)
        kvs;
      Buffer.add_char b '}'

let json_to_string (j : json) : string =
  let b = Buffer.create 256 in
  buf_add_json b j;
  Buffer.contents b

(** Pretty printer with 2-space indentation, for the metrics and chrome
    files (JSONL event lines stay compact). *)
let rec buf_add_json_pretty b ~indent = function
  | (Null | Bool _ | Int _ | Float _ | Str _) as j -> buf_add_json b j
  | List [] -> Buffer.add_string b "[]"
  | List xs ->
      let pad = String.make indent ' ' and pad' = String.make (indent + 2) ' ' in
      Buffer.add_string b "[\n";
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string b ",\n";
          Buffer.add_string b pad';
          buf_add_json_pretty b ~indent:(indent + 2) x)
        xs;
      Buffer.add_char b '\n';
      Buffer.add_string b pad;
      Buffer.add_char b ']'
  | Obj [] -> Buffer.add_string b "{}"
  | Obj kvs ->
      let pad = String.make indent ' ' and pad' = String.make (indent + 2) ' ' in
      Buffer.add_string b "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ",\n";
          Buffer.add_string b pad';
          Buffer.add_char b '"';
          buf_add_escaped b k;
          Buffer.add_string b "\": ";
          buf_add_json_pretty b ~indent:(indent + 2) v)
        kvs;
      Buffer.add_char b '\n';
      Buffer.add_string b pad;
      Buffer.add_char b '}'

let json_to_string_pretty (j : json) : string =
  let b = Buffer.create 1024 in
  buf_add_json_pretty b ~indent:0 j;
  Buffer.add_char b '\n';
  Buffer.contents b

(* A minimal recursive-descent parser — enough to validate our own JSONL
   output and re-read traces for the chrome exporter; not a general
   JSON implementation. *)

exception Parse_fail of string

let json_of_string (s : string) : (json, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_fail (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents b
      | '\\' -> (
          if !pos >= n then fail "unterminated escape";
          let e = s.[!pos] in
          advance ();
          match e with
          | '"' -> Buffer.add_char b '"'; go ()
          | '\\' -> Buffer.add_char b '\\'; go ()
          | '/' -> Buffer.add_char b '/'; go ()
          | 'n' -> Buffer.add_char b '\n'; go ()
          | 't' -> Buffer.add_char b '\t'; go ()
          | 'r' -> Buffer.add_char b '\r'; go ()
          | 'b' -> Buffer.add_char b '\b'; go ()
          | 'f' -> Buffer.add_char b '\012'; go ()
          | 'u' ->
              if !pos + 4 > n then fail "truncated \\u escape";
              let hex = String.sub s !pos 4 in
              pos := !pos + 4;
              let code =
                try int_of_string ("0x" ^ hex)
                with _ -> fail "bad \\u escape"
              in
              (* our own output only escapes control characters; anything
                 above Latin-1 is preserved as a '?' placeholder *)
              Buffer.add_char b
                (if code < 0x100 then Char.chr code else '?');
              go ()
          | _ -> fail "bad escape")
      | c -> Buffer.add_char b c; go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    if tok = "" then fail "expected number";
    let is_float =
      String.exists (function '.' | 'e' | 'E' -> true | _ -> false) tok
    in
    if is_float then
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail "bad number"
    else
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let member () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let items = ref [ member () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := member () :: !items;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !items)
        end
    | Some _ -> parse_number ()
  in
  try
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "trailing input at offset %d" !pos)
    else Ok v
  with Parse_fail msg -> Error msg

(* ---- monotonic clock ---------------------------------------------------- *)

let t_start = Unix.gettimeofday ()
let t_last = ref 0.0

(** Monotonic wall-clock seconds since process start.  Backed by
    [Unix.gettimeofday] but clamped so it never goes backwards (NTP
    steps, VM suspensions), which keeps trace timestamps ordered. *)
let now_s () : float =
  let t = Unix.gettimeofday () -. t_start in
  if t > !t_last then t_last := t;
  !t_last

(* ---- event stream ------------------------------------------------------- *)

type event = {
  ev_seq : int;
  ev_ts : float;  (** monotonic seconds since process start *)
  ev_kind : string;
  ev_fields : (string * json) list;
}

let seq = ref 0
let recording = ref false
let recorded : event list ref = ref []  (* newest first *)
let sink : out_channel option ref = ref None

let set_recording (on : bool) = recording := on

let attach_sink (oc : out_channel) = sink := Some oc

let detach_sink () =
  (match !sink with Some oc -> flush oc | None -> ());
  sink := None

(** Is anything listening?  Callers may use this to skip building
    expensive field lists. *)
let armed () = !recording || !sink <> None

let event_to_json (e : event) : json =
  Obj
    (("ts", Float e.ev_ts) :: ("seq", Int e.ev_seq)
    :: ("kind", Str e.ev_kind) :: e.ev_fields)

let emit (kind : string) (fields : (string * json) list) : unit =
  if armed () then begin
    let e = { ev_seq = !seq; ev_ts = now_s (); ev_kind = kind; ev_fields = fields }
    in
    incr seq;
    if !recording then recorded := e :: !recorded;
    match !sink with
    | Some oc ->
        output_string oc (json_to_string (event_to_json e));
        output_char oc '\n'
    | None -> ()
  end

(** Recorded events, oldest first. *)
let events () : event list = List.rev !recorded

(* ---- JSONL schema validation -------------------------------------------- *)

(** Schema of one trace event: a JSON object whose reserved keys are a
    non-negative number ["ts"], a non-negative integer ["seq"] and a
    non-empty string ["kind"]; no key may repeat. *)
let event_of_json (j : json) : (event, string) result =
  match j with
  | Obj kvs -> (
      let keys = List.map fst kvs in
      let dup =
        List.find_opt (fun k -> List.length (List.filter (( = ) k) keys) > 1) keys
      in
      match dup with
      | Some k -> Error (Printf.sprintf "duplicate key %S" k)
      | None -> (
          match
            ( List.assoc_opt "ts" kvs,
              List.assoc_opt "seq" kvs,
              List.assoc_opt "kind" kvs )
          with
          | None, _, _ -> Error "missing \"ts\""
          | _, None, _ -> Error "missing \"seq\""
          | _, _, None -> Error "missing \"kind\""
          | Some ts, Some sq, Some kind -> (
              let ts =
                match ts with
                | Float f when f >= 0.0 -> Some f
                | Int i when i >= 0 -> Some (float_of_int i)
                | _ -> None
              in
              match (ts, sq, kind) with
              | None, _, _ -> Error "\"ts\" must be a non-negative number"
              | Some _, Int sq, Str "" when sq >= 0 ->
                  Error "\"kind\" must be non-empty"
              | Some ts, Int sq, Str kind when sq >= 0 ->
                  Ok
                    {
                      ev_seq = sq;
                      ev_ts = ts;
                      ev_kind = kind;
                      ev_fields =
                        List.filter
                          (fun (k, _) -> k <> "ts" && k <> "seq" && k <> "kind")
                          kvs;
                    }
              | Some _, Int sq, _ when sq >= 0 ->
                  Error "\"kind\" must be a string"
              | Some _, _, _ -> Error "\"seq\" must be a non-negative integer")))
  | _ -> Error "not a JSON object"

let validate_event_line (line : string) : (event, string) result =
  match json_of_string line with
  | Error e -> Error ("not valid JSON: " ^ e)
  | Ok j -> event_of_json j

(** Validate a whole trace: every line schema-valid, timestamps
    non-decreasing, sequence numbers strictly increasing, and run
    envelopes well-bracketed (every [run.finish] closes a distinct
    preceding [run.start] — a duplicated or orphaned finish envelope is
    rejected).  Blank lines are skipped but counted, so a line number is
    the file's own.  Returns each decoded event with its line number on
    success, or [(line_number, message)] for the first offending
    line. *)
let validate_trace_lines (lines : string list) :
    ((int * event) list, int * string) result =
  let rec go i prev_ts prev_seq ~starts ~finishes acc = function
    | [] when acc = [] ->
        (* an empty trace is its own failure mode (a sink that was armed
           but never flushed, a truncated file) — report it as such, not
           as "0 events, schema OK" and not as malformed JSON *)
        Error (0, "empty trace (no events)")
    | [] -> Ok (List.rev acc)
    | line :: rest when String.trim line = "" ->
        go (i + 1) prev_ts prev_seq ~starts ~finishes acc rest
    | line :: rest -> (
        match validate_event_line line with
        | Error e -> Error (i, e)
        | Ok e ->
            if e.ev_ts < prev_ts then Error (i, "timestamp went backwards")
            else if e.ev_seq <= prev_seq then
              Error (i, "sequence number did not increase")
            else
              let starts =
                if e.ev_kind = "run.start" then starts + 1 else starts
              in
              if e.ev_kind = "run.finish" && finishes >= starts then
                Error
                  ( i,
                    "duplicate \"run.finish\" envelope (no matching \
                     \"run.start\")" )
              else
                let finishes =
                  if e.ev_kind = "run.finish" then finishes + 1 else finishes
                in
                go (i + 1) e.ev_ts e.ev_seq ~starts ~finishes ((i, e) :: acc)
                  rest)
  in
  go 1 0.0 (-1) ~starts:0 ~finishes:0 [] lines

(* ---- chrome trace-event exporter ---------------------------------------- *)

(** Convert events to the Chrome trace-event format (load the result in
    [about://tracing] / Perfetto): instant events on one pid/tid, with
    the telemetry fields as [args]. *)
let chrome_of_events (evs : event list) : json =
  Obj
    [
      ( "traceEvents",
        List
          (List.map
             (fun e ->
               Obj
                 [
                   ("name", Str e.ev_kind);
                   ("ph", Str "i");
                   ("s", Str "t");
                   (* chrome timestamps are microseconds *)
                   ("ts", Float (e.ev_ts *. 1e6));
                   ("pid", Int 1);
                   ("tid", Int 1);
                   ("args", Obj e.ev_fields);
                 ])
             evs) );
      ("displayTimeUnit", Str "ms");
    ]

(* ---- file helpers ------------------------------------------------------- *)

let write_file (path : string) (content : string) : unit =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc content)

(** Write recorded events as a Chrome trace-event file. *)
let write_chrome (path : string) : unit =
  write_file path (json_to_string_pretty (chrome_of_events (events ())))

(* ---- reset -------------------------------------------------------------- *)

(** Drop recorded events and restart the sequence counter. *)
let reset () : unit =
  recorded := [];
  seq := 0
