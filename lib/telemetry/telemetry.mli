(** Telemetry plumbing: JSON, a monotonic clock, the structured JSONL
    event stream behind [--trace] with its schema validation, and a
    Chrome trace-event exporter.  It holds no numbers: a run's counts
    live in its [Runner.report], a compile's in its [Driver.compiled],
    and [--metrics] is rendered from those values.

    Events are recorded only while a recorder or sink is armed, so hot
    paths pay nothing by default.  Runtime events arrive through
    [Flight.record], which renders each typed event with one schema and
    streams it here. *)

(** {2 JSON} *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

val json_to_string : json -> string
(** Compact, single-line. *)

val json_to_string_pretty : json -> string
(** 2-space indented, trailing newline. *)

val json_of_string : string -> (json, string) result
(** Minimal parser — enough to validate and re-read our own output. *)

(** {2 Monotonic clock} *)

val now_s : unit -> float
(** Monotonic wall-clock seconds since process start
    ([Unix.gettimeofday] clamped to never decrease). *)

(** {2 Event stream} *)

type event = {
  ev_seq : int;  (** process-wide, strictly increasing *)
  ev_ts : float;  (** monotonic seconds since process start *)
  ev_kind : string;
  ev_fields : (string * json) list;
}

val set_recording : bool -> unit
(** Keep emitted events in memory (for {!events} / {!write_chrome}). *)

val attach_sink : out_channel -> unit
(** Stream every emitted event to the channel as one JSONL line. *)

val detach_sink : unit -> unit
(** Flush and stop streaming (does not close the channel). *)

val armed : unit -> bool
(** Is anything listening?  Use to skip building expensive fields. *)

val emit : string -> (string * json) list -> unit
(** [emit kind fields] — a no-op unless {!armed}.  [ts], [seq] and
    [kind] are reserved keys added by the stream. *)

val events : unit -> event list
(** Recorded events, oldest first. *)

val event_to_json : event -> json

(** {2 JSONL schema validation} *)

val event_of_json : json -> (event, string) result
(** One event: a JSON object with a non-negative number ["ts"], a
    non-negative integer ["seq"], a non-empty string ["kind"], and no
    duplicate keys; the other keys are its fields. *)

val validate_event_line : string -> (event, string) result
(** One line, parsed once and decoded by {!event_of_json}. *)

val validate_trace_lines :
  string list -> ((int * event) list, int * string) result
(** Whole trace (blank lines skipped): every line schema-valid,
    timestamps non-decreasing, sequence numbers strictly increasing, and
    run envelopes well-bracketed — a [run.finish] with no distinct
    preceding [run.start] (duplicated or orphaned) is rejected.
    [Ok events] are the decoded events, in order; [Error (line, msg)]
    names the first offender (its number among the non-blank lines).  A trace with no events at all is rejected distinctly as
    [Error (0, "empty trace (no events)")] — line 0 means the file as a
    whole, not a malformed line. *)

(** {2 Chrome trace-event exporter} *)

val chrome_of_events : event list -> json
(** Trace-event format (load in about://tracing or Perfetto). *)

(** {2 Files} *)

val write_file : string -> string -> unit

val write_chrome : string -> unit
(** Recorded events as a Chrome trace-event file. *)

val reset : unit -> unit
(** Drop recorded events and restart the sequence counter. *)
