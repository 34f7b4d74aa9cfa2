(** The regression gate: compare two BENCH table files
    ([{"schema_version": 1, "table1": [rows], ...}]) and flag threshold
    breaches.  [bench --json] writes them, and so does
    [satbelim profile --json]: a profile file carries its summary in a
    [profile] table.

    [known_tables] in gate.ml is the one list of gated tables: each
    table's key fields and its gated metrics, with the direction and
    limit each one regresses by.  Relative metrics share four limits: an
    elimination percentage may drop 2.0 points, a pause may grow 25%, a
    modelled cost 10%, an MMU 0.05 absolute.

    A key present in the old file but missing from the new one is a
    regression (a benchmark or collector silently disappearing must not
    pass the gate); a list-valued member no entry names is noted as "not
    gated, skipped".  A gated metric absent from either row is skipped; a
    gated metric that is present but not a number, or a gated table that
    is not a list of row objects, is an error.  Both files must carry
    this build's [schema_version]; comparing files written at different
    versions is an error, not a silent diff (files predating versioning
    only compare with each other). *)

val bench_schema_version : int
(** Version stamp of the table-file layout; [bench --json] and
    [profile --json] write it and {!diff_json} refuses to compare files
    at any other version. *)

type outcome = {
  o_lines : string list;  (** full comparison log *)
  o_regressions : string list;  (** threshold breaches, subset *)
}

val regressed : outcome -> bool

val diff_json :
  old_:Telemetry.json -> Telemetry.json -> (outcome, string) result
(** [diff_json ~old_ new_] compares every table of [old_] with its
    counterpart in [new_]. *)

val diff_files : old_path:string -> string -> (outcome, string) result
(** [diff_files ~old_path new_path] reads, parses and compares two
    table files. *)

val render : outcome -> string
(** The comparison log, one line each, then the verdict line:
    ["FAIL: n regression(s)"] or ["OK: no regressions"]. *)
