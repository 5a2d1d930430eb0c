(** Seeded chaos runs: a preset of {!Scenario} specs.

    A chaos run draws a fault plan from a seed ({!Fault.Gen}) and runs
    it against the saturated testbed flow 0 -> 12 (testbed draw 4242,
    no device classes). {!spec} writes that run as a {!Scenario.spec}
    with the drawn plan embedded ([churn = Plan]), so {!Scenario.run}
    executes it and scores it with the one degradation scorecard,
    from the engine's own whole-second goodput bins and a fault-free
    twin run (see {!Scenario} for the metric definitions).

    The [Severing] intensity pins the {!Fault.Gen} victim to the flow
    destination (node 12), so the single crash window is guaranteed
    to take down {e every} route of the flow. [~recovery:true] runs
    the engine under the [Heal] dead-route policy, the self-healing
    control plane (failure detection, stale-price reset,
    backoff-driven reclaim probes) whose detection latency the
    scorecard reports as [detect_s]; otherwise the run uses
    [Probe_floor], so a fully failed route keeps probing and is
    reclaimed once it heals.

    The SLO is fixed: a second is available when the flow's goodput
    bin is at least half its fault-free baseline, and the run meets
    the SLO when at least 75% of its measured seconds are available.

    Determinism: one seed pins the whole run. The plan draws from an
    {!Rng.split} of [Rng.create seed] and the engine consumes the rest
    of that stream, so equal seeds give byte-identical scorecards. *)

val graph : unit -> Multigraph.t
(** The scenario's graph: testbed draw 4242 under the EMPoWER scenario
    (the network of the [failure] trace scenario). *)

val plan :
  ?intensity:Fault.Gen.intensity ->
  Multigraph.t ->
  seed:int ->
  duration:float ->
  Fault.plan
(** The plan a seed draws for this scenario ([intensity] defaults to
    [Moderate]), with the pinned victim for [Severing]. *)

val spec :
  ?intensity:Fault.Gen.intensity ->
  ?recovery:bool ->
  ?duration:float ->
  seed:int ->
  unit ->
  Scenario.spec
(** The chaos run of [seed] ([intensity] defaults to [Moderate],
    [recovery] to [false], [duration] to 20 s) with the {!plan} it
    draws embedded. Its name is ["chaos-<intensity>"], and its
    description restates the seed, intensity, duration and recovery
    switch. *)
