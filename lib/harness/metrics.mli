(** The [--metrics] document of one command, rendered from the values
    that hold its numbers: the command's compile and the reports of its
    runs.  Nothing is counted twice and nothing is kept between
    commands. *)

val render :
  ?chaos:Jrt.Chaos.t ->
  Satb_core.Driver.compiled ->
  Jrt.Runner.report list ->
  Telemetry.json
(** [render ?chaos compiled reports] is an object of three members, each
    sorted by name:
    - [counters]: [analysis.*] from [compiled]'s method results and
      sites, [summary.methods] and [summary.havoced] when it computed
      summaries (and [summary.widened], equal to [summary.havoced], when
      some component widened); the runtime names, every one present even
      with no run, summed over [reports]: [jrt.*] from each machine,
      [gc.*] from its cycle reports, [retrace.*] from the cycle reports
      of runs whose collector has the retrace protocol, [pacer.*] from
      its pacer stats, and [chaos.*] from [chaos]'s stats;
    - [gauges]: [pacer.trigger_units] and [pacer.goal] of the last run
      with a pacer, and [pacer.live_units] of the last one that
      completed a cycle (0.0 without one);
    - [histograms]: the three pass times of [compiled], as
      [compile.<pass>_s] with count 1. *)
