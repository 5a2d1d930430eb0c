(** Declarative long-horizon churn scenarios and their degradation
    scorecards.

    A {e scenario} is a named, validated JSON document pinning one
    robustness experiment end to end: a topology draw, per-node
    device classes ({!Device}), a set of flows, a churn plan —
    either embedded explicitly or drawn from {!Fault.Gen} — the
    recovery switch and an SLO. {!run} executes the scenario twice
    with identical engine seeding — once fault-free and unobserved,
    once under churn — and folds the engine's goodput bins of both
    runs and the {!Obs} record of the churn run's control, fault and
    recovery rows into a {!scorecard}: per-flow availability against
    the fault-free baseline, time below SLO, recovery counters and a
    per-churn-event dip/recovery table. Scenario files live under
    [scenarios/] and are exercised by [empower_eval scenario]; the
    seeded chaos runs of [empower_eval chaos] are specs too
    ({!Chaos.spec}), so every fault run is scored here.

    {2 Determinism}

    Everything is pinned by the spec: the topology draw by
    [topology.seed], the generated plan by a split of
    [Rng.create seed], and both engine runs by the remainder of that
    master stream — the baseline run re-creates the identical stream
    so the two runs differ only in the injected fault schedule.
    Equal specs therefore yield byte-identical scorecard JSON, which
    is what the golden tests pin.

    {2 Scorecard metric definitions}

    Bins are the engine's whole-second goodput bins
    ([Engine.flow_result.goodput_series]), one per second of the run:
    a second in which a flow delivers nothing is a 0 Mbit/s bin, so an
    outage counts against availability and time below SLO and deepens
    the dips. A trailing partial second of a fractional [duration] is
    not a bin. With [W] the churn run's bins whose bin-end time is in
    the measure window [(warmup, duration]] (warmup = 2 s), and [B]
    the per-flow mean of the fault-free run's bins over the same
    window:

    - {e availability}: fraction of bins in [W] with goodput
      [>= slo.availability_frac *. B];
    - {e time below SLO}: [(1 - availability) *. |W|] seconds;
    - {e per-event dip}: for each plan action, the worst (over
      flows) of [B - min bin] inside the action's
      [[start_time, end_time]] window, floored at 0;
    - {e per-event recovery}: the worst (over flows) time from the
      action's [end_time] until the flow's goodput bin is back to
      [>= 0.9 *. B]; [-1] when a flow never recovers;
    - the SLO is met when every flow's availability is
      [>= slo.min_availability]. *)

type topology_kind = Testbed | Residential | Enterprise

type churn =
  | Generate of { intensity : Fault.Gen.intensity; protect_endpoints : bool }
      (** Draw the plan with {!Fault.Gen.plan} from a split of the
          scenario seed; when [protect_endpoints] is set every flow
          endpoint is passed as the generator's [?protect] set. *)
  | Plan of Fault.plan  (** An explicit embedded plan. *)

type slo = {
  availability_frac : float;
      (** a 1 s bin is "available" when the flow's goodput is at
          least this fraction of its fault-free baseline *)
  min_availability : float;
      (** the scenario passes when every flow's availability is at
          least this fraction *)
}

type spec = {
  name : string;
  description : string;
  seed : int;  (** plan + engine master seed *)
  duration : float;
  topology : topology_kind;
  topology_seed : int;
  devices : Device.spec list;
  flows : (int * int) list;  (** (src, dst) pairs *)
  churn : churn;
  recovery : bool;
      (** run under the [Heal] dead-route policy ([Probe_floor] when
          false) *)
  slo : slo;
}

val spec_of_json : Obs.Json.t -> (spec, string) result
(** Strict decode of a version-1 scenario document: unknown fields
    of known objects are ignored, but missing / mistyped fields (in
    the {!Obs.Json.field} vocabulary),
    unknown topology kinds, device classes, intensities and bad
    ranges ([duration <= 0], SLO fractions outside [[0,1]], empty
    [flows]) are [Error]s. *)

val load : string -> (spec, string) result
(** Read and decode one scenario file through {!Obs.Json.of_file};
    every error names the path. *)

val catalog : string -> ((string * string) list, string) result
(** [(name, path)] for every [*.json] in a directory, sorted by
    name ([name] is the filename without extension). *)

type flow_score = {
  flow : int;
  src : int;
  dst : int;
  baseline_mbps : float;  (** fault-free mean binned goodput, Mbit/s *)
  goodput_mbps : float;  (** churn-run whole-run goodput, Mbit/s *)
  availability : float;
  below_slo_s : float;
  reroutes : int;
  route_deaths : int;
  route_restores : int;
  outage_s : float;
  detect_s : float;  (** worst detection latency; 0 when none *)
  dip_depth : float;
      (** this and the next two: {!Obs.Recorder.degradation} of all
          the churn run's bins against the span of its fault boundary
          events; 0 when the plan injected none *)
  dip_area : float;
  recovery_s : float;  (** vs the last fault boundary; -1 = never *)
}

type event_score = {
  op : string;
  at : float;
  clear : float;  (** the action's {!Fault.end_time} *)
  dip_mbps : float;
  recover_s : float;  (** -1 when some flow never recovers *)
}

val event_score_to_json : event_score -> Obs.Json.t
(** One element of the scorecard document's ["events"]. *)

type scorecard = {
  spec : spec;
  plan : Fault.plan;  (** the compiled-against plan, normalized *)
  fault_events : int;
  queue_drops : int;
  events_processed : int;
  route_deaths : int;  (** run total, all flows *)
  probes : int;
  flows : flow_score list;
  events : event_score list;
  min_availability_measured : float;  (** worst flow availability *)
  slo_met : bool;
}

val run : ?trace:Obs.Trace.sink -> ?flight:Obs.Flight.t -> spec -> scorecard
(** Execute the scenario. The baseline run is internal: [trace],
    [flight] and the process-global metrics registry observe only
    the churn run. An embedded plan runs as {!Fault.normalize}
    orders it. Raises [Invalid_argument] on a spec that fails
    deep validation: device specs {!Device.validate}, flow endpoints
    out of range or equal, a relay-class endpoint, no route between
    a flow's endpoints, or an embedded plan {!Fault.validate}
    rejects. *)

val run_with_result :
  ?trace:Obs.Trace.sink ->
  ?flight:Obs.Flight.t ->
  spec ->
  scorecard * Engine.result
(** {!run}, with the churn run's engine result beside the scorecard:
    the accounting a trace recorded through [trace] must reproduce
    ({!Tracing.cross_check}). *)

val run_all : ?jobs:int -> spec list -> scorecard list
(** {!run} every spec via {!Exec.map}: results in list order,
    bit-identical for any job count. *)

val to_json : scorecard -> Obs.Json.t
(** The ["figure": "scenario"] document the golden tests pin
    byte-for-byte and [empower_eval report] renders. The document
    carries the normalized plan the run used. *)

val of_json : Obs.Json.t -> (scorecard, string) result
(** The inverse of {!to_json}: [to_json (of_json j)] reprints [j] for
    every document {!to_json} wrote. An explicit churn decodes as
    [Plan] of the document's plan. The spec fields are validated as
    {!spec_of_json} validates them; ["plan_actions"] is the plan's
    length and is not read. *)

val print : ?out:out_channel -> scorecard -> unit
