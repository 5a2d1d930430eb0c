(** Discrete-event packet simulator of the full EMPoWER datapath.

    This is the OCaml equivalent of the paper's Click implementation
    plus the testbed it ran on, with the same MAC abstraction as the
    paper's Matlab simulator:

    {b MAC.} Each directed link owns a FIFO frame queue. A link may
    start transmitting when no link of its interference domain is on
    the air (perfect carrier sensing, no back-off); when a domain
    frees up, backlogged links are served least-recently-served-first,
    which gives the equal-transmission-opportunity behaviour of
    CSMA/CA (and hence Lemma 1's equal-rate sharing under
    saturation). A frame occupies the medium for
    [bytes / capacity]; queues overflow by dropping the arriving
    frame.

    {b Layer 2.5.} Sources inject frames carrying the 20-byte
    EMPoWER header; the route is chosen per-frame with probability
    proportional to the controller's route rates. Forwarding nodes
    locate their interface hash in the source route, add the current
    congestion price [d_l Σ_{i∈I_l} γ_i] to the header's q_r field
    and enqueue on the matching egress link. Destinations feed a
    reorder buffer, collect q_r per route, and return an ACK every
    100 ms over the best reverse path (prioritized: modeled as a
    fixed reverse-path latency, no data-plane airtime).

    {b Control plane.} Every 100 ms each node measures the airtime
    demand of its egress links from the bits that arrived in the last
    window and the estimated capacities, exchanges the per-technology
    aggregates with its interference neighborhood (the paper's
    broadcast packets; modeled as instantaneous overhearing), and
    updates the dual variables γ_l (step {!Alpha.base}). Sources
    apply the proximal multipath update of {!Multi_cc.update_rate}
    and {!Multi_cc.update_average} on each ACK (gain 50,
    proportional-fair utility, step size from the Section 6.1
    {!Alpha} heuristic). Link capacities, and hence prices, are known
    only through {!Estimator}s (precise under traffic, coarser when
    probing).

    {b Transports.} UDP (rate-driven by the controller, or fixed
    rates without CC) and the Reno TCP of {!Tcp} (window-driven, with
    the controller enforcing its allocation through a source token
    bucket of {!Invariants.bucket_depth} that holds above-rate
    segments until tokens accrue, and optional destination-side delay
    equalization).

    {b Structure.} A run is one explicit state record, built by a
    bootstrap function (validation, the seeded [Rng.split]s, the
    per-run interference views and forwarding plans, the first
    events), then one dispatch loop over the timing wheel's
    int-encoded events, then the assembly of the {!result}. The
    handlers are top-level functions over that record, grouped in the
    layers above: [Mac] (grant, on-air, domain-idle, shared buffers),
    [Datapath] (inject, per-hop price stamp, forward, deliver,
    reorder), [Transport] (UDP pacing, TCP), [Control] (tick,
    per-ACK update, dead-route policies) and [Faults] (capacity, loss
    and control-plane changes). A profiler, when given, brackets the
    same loop. *)

type transport =
  | Udp
  | Tcp_transport

type flow_spec = {
  src : int;
  dst : int;
  routes : Paths.t list;       (** preselected routes (from routing) *)
  init_rates : float list;     (** initial injection rate per route (Mbit/s) *)
  workload : Workload.t;
  transport : transport;
  tcp_params : Tcp.params option;
      (** TCP sender parameters for [Tcp_transport] flows ([None] =
          {!Tcp.default_params}, the historical Reno sender; e.g.
          {!Tcp.dctcp_params} for a DCTCP-style ECN-reacting sender).
          [segment_bytes] is always overridden by [config.frame_bytes].
          Ignored for [Udp] flows. *)
  start_time : float;          (** when the flow begins *)
  stop_time : float option;    (** when the flow is switched off *)
}

(** How a node's shared buffer pool arbitrates its egress ports. *)
type buffer_policy =
  | Static
      (** equal static partition: each of the node's [n] egress ports
          owns [pool_bytes / n] bytes *)
  | Dynamic_threshold of float
      (** Choudhury–Hahne Dynamic Threshold with parameter alpha: a
          frame is admitted iff its port's occupancy stays within
          [alpha * (pool_bytes - node occupancy)] — thresholds shrink
          as the pool fills, so idle ports cede space to busy ones *)

(** Finite per-node shared buffering (see [config.buffers]). *)
type buffers = {
  policy : buffer_policy;
  pool_bytes : int;       (** shared byte pool per node *)
  ecn_threshold_bytes : int option;
      (** when set, a frame admitted while its port holds at least
          this many bytes (frame included) gets the ECN CE bit instead
          of any additional penalty; the bit is sticky across hops,
          echoed by the receiver on TCP cumulative acks, and reported
          per ACK window ({!Ack.route_report.marked}) *)
}

(** How a flow treats a dead route (Section 6.1): one whose ACK
    windows were {!Recovery.missed} — more than two frames fed,
    nothing acked — for {!Recovery.dead_ack_threshold} consecutive
    control periods. *)
type dead_route =
  | Abandon
      (** Halve the route's rates on every such period, down to zero:
          a fully failed route stays abandoned even after it heals,
          because its q_r never refreshes. The paper figures and the
          [trace] scenarios run this (the default). *)
  | Probe_floor
      (** Halve as [Abandon], but floor at the 0.2 Mbit/s probe rate,
          so a dead route keeps carrying the occasional frame and is
          reclaimed once it heals. *)
  | Heal
      (** The self-healing control plane of {!Recovery} on UDP flows:
          a {!Recovery.Detector} over the ack stream declares the route
          dead on the spot (the same miss rule, or outstanding frames
          older than {!Recovery.hello_timeout}). Its rate state is
          zeroed, the stale γ of its unusable links is reset instead
          of draining, the lost rate mass moves to the routes that
          survive an LSDB re-discovery from the flow's source
          ({!Recovery.survivors}: the flood's outcome, computed from
          which nodes still reach the source over usable links, not
          by simulating the flood), and reclaim probes run on the
          {!Recovery.Backoff} schedule. An ack returning on a dead
          route restores its routing-estimated initial rate, and a
          link that comes back from the dead restarts its domain's γ
          and its own capacity estimate. TCP
          flows get [Probe_floor]: probes would corrupt the TCP
          reorder/ack machinery. The backoff jitter draws from its own
          stream (see the seeding contract of {!run}), so equal seeds
          stay bit-identical. *)

type config = {
  frame_bytes : int;        (** aggregate frame payload (default 12000) *)
  delta : float;            (** constraint margin δ (default 0) *)
  enable_cc : bool;         (** false: inject at [init_rates] forever *)
  delay_equalize : bool;    (** destination-side delay equalization *)
  control_period : float;   (** controller/ACK period (default 0.1 s) *)
  collision_prob : float;
      (** CSMA/CA contention losses: a transmission starting while [m]
          other stations of its collision domain are backlogged
          collides (airtime wasted, frame lost) with probability
          [1 - (1-p)^m]. Default 0.12; 0 disables (the idealized
          Section 5 MAC). This is what makes over-driving the network
          expensive and the δ margin worthwhile. *)
  dead_route : dead_route;  (** default [Abandon] *)
  buffers : buffers option;
      (** Finite per-node shared buffers (default [None] — the legacy
          per-queue {!queue_limit} frame check, byte-identical to the
          historical behaviour). When set, admission to a node's MAC
          queues is arbitrated in {e bytes} against the node's shared
          pool under [policy], {e replacing} the {!queue_limit} frame
          check; rejected frames count as queue drops exactly like
          legacy overflows. Admission and ECN marking are pure
          functions of buffer occupancy and consume {e no} randomness,
          so the rng stream is identical with the feature on or off. *)
}

val default_config : config

val queue_limit : int
(** Per-link queue capacity in frames (100) while [config.buffers] is
    unset. *)

type flow_result = {
  received_bytes : int;
  goodput_series : (float * float) list;
      (** (bin end time, delivered Mbit/s) per 1 s bin *)
  rate_series : (float * float array) list;
      (** (time, per-route injection rates) per control period *)
  completions : (float * float) list;
      (** per workload file, in file order: (start time, duration).
          Start is [max (arrival, previous completion)] — for the
          closed-loop file workloads because the engine serializes
          starts behind the previous completion, for [Empirical]
          because the persistent connection serves transfers FIFO.
          Completed files always form a prefix of the schedule, so
          zipping with the workload's arrivals recovers per-transfer
          flow-completion times (completion − arrival). *)
  frames_lost : int;        (** declared lost by the reorder buffer *)
  final_rates : float array; (** controller rates at the end *)
  mean_delay : float;
      (** mean one-way frame delay (s) over {e every} delivery (exact,
          streamed through an {!Obs.Metrics.Histogram}) — the quantity
          the δ margin of (3) keeps low *)
  p95_delay : float;
      (** 95th percentile of every delivery's delay, within the
          histogram's 0.5% relative error *)
}

(** Engine self-profiling, measured with [Sys.time] around the event
    loop. Wall-clock figures are {e not} part of the determinism
    contract — compare results with {!strip_perf} applied. *)
type perf = {
  wall_s : float;            (** CPU seconds spent in the event loop *)
  events_per_s : float;      (** events_processed / wall_s (0 if instant) *)
  wall_per_sim_s : float;    (** CPU seconds per simulated second *)
  peak_queue_depth : int;    (** max event-queue length observed *)
}

type result = {
  flows : flow_result array;
  duration : float;
  queue_drops : int;
      (** total MAC queue overflows — buffer-admission rejections when
          [config.buffers] is set, {!queue_limit} overflows otherwise,
          plus backlogs flushed by link deaths in both modes *)
  ecn_marks : int;          (** frames CE-marked on admission (0 without
                                an [ecn_threshold_bytes]) *)
  buffer_peak_bytes : int;  (** peak per-node shared-pool occupancy (0
                                without [config.buffers]) *)
  events_processed : int;
  perf : perf;
}

val strip_perf : result -> result
(** [result] with [perf] zeroed — everything that remains is covered
    by the determinism contract below. *)

val run :
  ?config:config ->
  ?invariants:Invariants.t ->
  ?trace:Obs.Trace.sink ->
  ?flight:Obs.Flight.t ->
  ?prof:Obs.Prof.t ->
  ?link_events:(float * int * float) list ->
  ?loss_events:(float * int * float) list ->
  ?ctrl_events:(float * float * float) list ->
  Rng.t ->
  Multigraph.t ->
  Domain.t ->
  flows:flow_spec list ->
  duration:float ->
  result
(** Simulate [duration] seconds. Flow routes must be non-empty for
    flows that should carry traffic; a flow with no routes idles.

    {b Determinism / seeding contract.} The run is a pure function of
    ([config], [link_events], [loss_events], [ctrl_events], the
    [Rng.t]'s state, [g], [dom], [flows], [duration]): equal inputs
    produce bit-identical {!result}s modulo the [perf] field
    (wall-clock; compare via {!strip_perf}). All randomness flows
    through the given generator, which is consumed in a fixed order —
    one {!Rng.split} per link (in link-id order) for the capacity
    estimators, then one split for the backoff jitter {e only under
    [dead_route = Heal]}, then, per flow in
    list order, the splits its workload needs (one per
    [Poisson_files] workload for its arrival draws; [Empirical]
    schedules are pre-sampled and consume none), then the per-frame
    draws as events execute (collision/fault draws, and one
    exponential gap per injected frame of a Poisson-paced
    [Empirical] flow — CBR flows draw nothing).

    File workloads are {e closed-loop}: a file's bytes only become
    sendable once it has arrived and the previous file's transfer
    completed at the receiver, so offered Poisson arrivals landing
    mid-transfer are serialized ([Workload.Poisson_files]'s
    contract). [Empirical] schedules are {e open-loop}: every arrived
    transfer queues on the connection immediately and its completion
    time includes the queueing wait. [Empirical] arrivals must be
    nonnegative and nondecreasing with positive sizes
    ([Invalid_argument] otherwise). Fault draws (frame loss after the collision draw; ACK
    drop at ACK emission) are taken {e only while the corresponding
    fault probability is positive}, so a run with empty fault
    schedules consumes exactly the same stream as one without them.
    MAC ties (equal last-service times when a domain frees up) break
    by link id; event-queue ties pop FIFO — so equal-time schedule
    entries apply in list order, last one wins. Adding a link or flow
    therefore shifts the streams of everything created after it, but
    no ordering decision is left to hashing or unspecified evaluation
    order.

    {b Invariant checking.} Passing [~invariants:t] runs the
    {!Invariants} checker over every event of the simulation (frame
    conservation, MAC occupancy, queue bounds, price positivity,
    reorder-release order, pacing/goodput bounds) — in its default
    [`Raise] mode any violated invariant aborts the run with
    {!Invariants.Violation}. When the [EMPOWER_CHECK] environment
    variable is set, every [run] without an explicit checker creates
    one, so a whole experiment binary can be audited without code
    changes. Expect a 2-4x slowdown with checking on.

    {b Observation.} Passing [~trace:sink] streams every datapath
    and control-plane event of the run (frame
    enqueue/grant/dequeue/collision/drop/delivery, ECN marks, price
    and rate updates, ACK emissions, link, loss and control-plane
    fault changes, route deaths, probes and restores) into the
    {!Obs.Trace.sink}; passing [~flight:ring] (or setting the
    [EMPOWER_FLIGHT] environment variable — see {!Obs.Flight.of_env})
    records them into a pre-allocated fixed-capacity ring with no
    per-event allocation. Each event is written once, into the ring
    (a one-slot stand-in when only a sink is given), which offers
    every row to the sink for the duration of the run: the ring sees
    every event, the sink sees the rows of the kinds it reads
    ({!Obs.Trace.reads}) and, except for the two array-carrying kinds
    (rate updates and ACKs), the event record is built only for those
    rows; a ring dump is therefore the tail of a full sink's trace. Sinks and
    rings only observe: they consume no randomness and mutate no
    engine state, so results are bit-identical with and without them.
    With no ring and no sink that reads some kind ({!Obs.Trace.none}
    reads none), each emission site is a single never-taken
    branch. Without an explicit sink ([none] is one), an installed
    {!Obs.Runtime} metrics registry (the harness's [--metrics] flag,
    or the [EMPOWER_METRICS] environment variable) attaches an
    {!Obs.Recorder} for the duration of the run. If any exception
    escapes the event loop — an {!Invariants.Violation} included — a
    caller's or ambient ring is dumped to JSONL ({!Obs.Flight.dump})
    before the exception is re-raised with its original backtrace,
    making every mid-run failure a replayable artifact.

    {b Profiling.} Passing [~prof:p] brackets every handled event
    with {!Obs.Prof.enter}/{!Obs.Prof.leave}, attributing wall time
    and GC minor words to the subsystem that handled it (mac_phy,
    traffic, controller, tcp, recovery, fault). The profiler observes
    the clock only — simulation results are unchanged.

    [link_events] schedules capacity changes: [(t, link, capacity)]
    sets the directed link's capacity at time [t] (0 = link failure,
    which also drops the link's backlog). Estimators track the change
    and the congestion controller re-prices the affected routes —
    the Section 6.1 reaction to capacity changes and link failures.
    Note that entries affect one direction; schedule the peer link
    too for a physical-edge failure.

    [loss_events] schedules frame-loss injection: [(t, link, p)] sets
    the link's per-frame loss probability at time [t] (0 ends the
    window). A lossy frame is drawn when the MAC grants it the
    medium, occupies its full airtime like a collision, and is
    dropped with reason [fault_injected] — it does {e not} count as a
    queue drop. [ctrl_events] schedules control-plane faults:
    [(t, drop_p, extra_delay)] atomically sets the probability that a
    destination's 100 ms ACK report is lost and the extra latency
    added to delivered reports (TCP's in-band cumulative ACKs are
    data-plane payload and are unaffected). These are the compile
    targets of {!Fault.compile} — build plans there rather than by
    hand.

    Raises [Invalid_argument] on a [duration] that is negative or not
    finite (a [duration] of 0 is an empty run) and on malformed specs
    (a [start_time] that is negative or not finite, a [stop_time] that
    is not finite or earlier than the flow's [start_time], event times
    that are negative or not finite, route/rate length mismatch,
    routes longer than the 6-hop header limit, out-of-range link/loss
    events, NaN or infinite link-event capacities, probabilities
    outside [0,1], negative delays). *)
