(** Unified run-report: [empower_eval report <artifact>] renders any
    artifact the harness produces into one text + JSON health report.

    Four artifact shapes are auto-detected from the file itself. Each
    figure document is read back by the decoder that sits beside its
    encoder, into the producer's own type:

    - a {b JSONL trace} (first line carries an ["ev"] tag — the
      output of [empower_eval trace -o] or a flight-recorder dump):
      replayed strictly through {!Obs.Summary}; the report carries the
      SLOs — per-flow goodput against the LP bound (the sum of the
      flow's last traced controller rate vector), exact p50/p95/p99
      delivery delay, severance detect/outage times — plus
      drop/collision/grant counters;
    - a {b loadsweep figure} ([{"figure":"loadsweep",...}] from
      [empower_eval loadsweep --json], read by
      {!Figure_json.loadsweep_of_json}): per-load achieved-vs-offered
      load, completion and drop counts, p99 FCT per size bucket, and
      a p99-monotone-in-load sanity flag;
    - a {b profile} ([{"figure":"profile",...}] from
      [empower_eval profile --json], read by
      {!Obs.Prof.document_of_json}): the subsystem hotspot table;
    - a {b scenario scorecard} ([{"figure":"scenario",...}] from
      [empower_eval scenario --json] or [empower_eval chaos --json],
      read by {!Scenario.of_json}):
      the degradation scorecard — per-flow availability against the
      fault-free baseline, time below SLO, per-churn-event dip and
      recovery, and the recovery-subsystem counters, with the
      scenario's own SLO verdict.

    Accuracy: a trace report replays the engine's accounting exactly
    (see {!Tracing.cross_check}). *)

type flow_slo = {
  stats : Obs.Summary.flow_stats;
  lp_bound_mbps : float;
      (** sum of the flow's final traced rate vector; 0 when the
          trace carried no rate update *)
  bound_ratio : float;  (** goodput / bound; [nan] when no bound *)
}

type trace = {
  summary : Obs.Summary.t;
  slos : flow_slo list;
}

type source =
  | Trace of trace
  | Sweep of Loadsweep.data  (** every point's [fcts] is empty *)
  | Profile of Obs.Prof.document
  | Scenario of Scenario.scorecard

type t = { path : string; source : source }

val of_file : ?duration:float -> string -> (t, string) result
(** Load and classify [path]. [duration] overrides a trace's horizon
    (default: the last event's timestamp); it is required to
    reproduce the exact goodput of a run whose trace ends before the
    configured duration, and ignored for figure documents. [Error]
    carries the file/parse/validation message, including the strict
    line-level errors of {!Obs.Summary.read_file}. *)

val to_json : t -> Obs.Json.t
(** The ["report"] figure: [source] is ["trace"], ["loadsweep"],
    ["profile"] or ["scenario"], and the payload carries the fields
    each text report prints. *)

val print : ?out:out_channel -> t -> unit
