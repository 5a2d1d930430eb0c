(** Seeded chaos scenario: a random-but-reproducible {!Fault} plan
    against the testbed network, with recovery metrics.

    A chaos run draws a fault plan from a seed ({!Fault.Gen}),
    compiles it into the engine's fault schedules and simulates the
    saturated testbed flow 0->12 under it, with the [Probe_floor]
    dead-route policy so full failures are recoverable. A
    private {!Obs.Recorder} folds the run's trace into the
    degradation metrics (goodput dip depth/area, time-to-recover,
    reroute count) that the {!report} carries.

    Two refinements target full severance. The [Severing] intensity
    pins the {!Fault.Gen} victim to the flow destination (node 12),
    so the single crash window is guaranteed to take down {e every}
    route of the scenario flow. And [~recovery:true] switches the
    engine to the [Heal] dead-route policy, enabling the
    self-healing control plane (failure detection, stale-price reset,
    backoff-driven reclaim probes) whose detection latency surfaces
    as {!flow_report.detect_s}.

    Determinism: one seed pins the whole run — the plan generator
    draws from an {!Rng.split} of the master stream and the engine
    consumes the rest, so equal seeds give bit-identical results
    (modulo [perf]; see the {!Engine.run} contract). *)

type flow_report = {
  flow : int;
  received_bytes : int;
  goodput_mbps : float;      (** over the full run *)
  recovery_s : float;
      (** time from the last fault boundary until windowed goodput is
          back within 90% of the pre-fault baseline; -1 = never, 0 =
          no dip at the boundary (see {!Obs.Recorder}) *)
  dip_depth : float;         (** Mbit/s below baseline, worst window *)
  dip_area : float;          (** Mbit/s·s lost to the dip *)
  reroutes : int;            (** preferred-route changes *)
  detect_s : float;
      (** worst failure-detection latency (route death declared by
          {!Recovery.Detector} minus last successful ack) — 0 when
          recovery is off or no route died *)
}

type report = {
  seed : int;
  intensity : Fault.Gen.intensity;
  duration : float;
  recovery : bool;           (** self-healing control plane enabled *)
  plan : Fault.plan;         (** the generated plan, for replay *)
  result : Engine.result;
  fault_events : int;        (** fault boundary events seen in the trace *)
  flows : flow_report list;
}

val network : unit -> Empower.network
(** The scenario's network (testbed draw, seed 4242 — the same one
    the [failure] trace scenario uses). *)

val plan :
  ?intensity:Fault.Gen.intensity ->
  ?clear_by:float ->
  Empower.network ->
  seed:int ->
  duration:float ->
  Fault.plan
(** The plan a given seed yields for this scenario (the same split
    stream {!run} uses, including the pinned victim for [Severing])
    — for inspection and tests. *)

val run :
  ?trace:Obs.Trace.sink ->
  ?flight:Obs.Flight.t ->
  ?intensity:Fault.Gen.intensity ->
  ?recovery:bool ->
  ?duration:float ->
  seed:int ->
  unit ->
  report
(** Run the chaos scenario ([intensity] defaults to [Moderate],
    [recovery] to [false], [duration] to 20 s) under
    {!Engine.default_config} with [dead_route = Probe_floor], or
    [Heal] when [recovery] is on. [trace] additionally
    streams every event to the caller's sink; an installed
    {!Obs.Runtime} registry ([--metrics] / [EMPOWER_METRICS]) is also
    populated, including the degradation metrics. [flight] records
    the run into a flight-recorder ring (see {!Engine.run}); the
    harness's [chaos --flight FILE] dumps it whenever the run shows a
    regression (a flow that never recovers: [recovery_s < 0]). *)

val sweep :
  ?intensity:Fault.Gen.intensity ->
  ?recovery:bool ->
  ?duration:float ->
  ?jobs:int ->
  int list ->
  report list
(** Run the scenario once per seed, fanned out over a domain pool
    ([jobs] as in {!Fig4.run}); reports come back in the seeds'
    order and are bit-identical for any job count. *)

val to_json : report -> Obs.Json.t

val sweep_json : report list -> Obs.Json.t
(** A [chaos-sweep] object wrapping each report's {!to_json}. *)

val print : ?out:out_channel -> report -> unit
