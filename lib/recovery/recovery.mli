(** Self-healing recovery: failure detection, stale-state reset and
    bounded route re-discovery.

    The paper's testbed recovers from node failure in seconds
    (Fig. 12) because EMPoWER nodes detect dead neighbours and re-run
    route selection instead of waiting for the Section 4 dual prices
    to decay. This module states the dead-route rule every engine
    policy shares ({!dead_ack_threshold}, {!missed}) and provides the
    pieces the engine composes under its [Heal] dead-route policy:

    - a per-route {!Detector} fed by the 100 ms ack stream
      ({!dead_ack_threshold} consecutive missed acks, or a
      {!hello_timeout} when traffic is outstanding, mark a route dead;
      a subsequent ack marks it recovered);
    - {!Backoff}, the exponential reclaim-probe schedule with a cap
      and deterministic seeded jitter;
    - {!rediscover} / {!replan}, route re-discovery by LSDB re-flood:
      live nodes re-advertise their usable links at a fresh sequence
      number, stale advertisements from dead or partitioned nodes are
      suppressed by the flooding discipline, and the viewer's
      reconstructed graph is intersected with ground-truth capacities
      before running the Section 3.2 multipath procedure;
    - {!survivors}, the per-route verdict of that re-discovery,
      computed from reachability without simulating the flood (the
      engine asks it on every route death).

    Everything here is deterministic: equal inputs (and equal rng
    states for the jittered backoff) give equal outputs. *)

val dead_ack_threshold : int
(** Consecutive {!missed} ack-report windows before a route is
    declared dead: 3, i.e. ~300 ms of silence under load. *)

val missed : injected:float -> acked:float -> frame_bytes:float -> bool
(** The miss test of one ack-report window: more than two frames
    ([injected > 2 * frame_bytes] bytes) were put on the route and
    nothing was acked. *)

val hello_timeout : float
(** Seconds without any ack while frames are outstanding before the
    {!Detector} declares a route dead — catches routes driven too
    slowly for the miss rule to fire: 1.0. *)

module Backoff : sig
  val delay : Rng.t -> attempt:int -> float
  (** [delay rng ~attempt] is [min 2 (0.2 * 2^attempt)] seconds,
      multiplied by a uniform jitter in [[0.9, 1.1]] (one draw from
      [rng]). Requires [attempt >= 0]. *)
end

(** Per-route failure detector over the periodic ack stream. *)
module Detector : sig
  type t

  type verdict =
    | Alive  (** route healthy (or idle with nothing outstanding) *)
    | Suspect of int  (** consecutive misses so far, below threshold *)
    | Down of { since : float }
        (** just declared dead; [since] is the last time the route was
            known good, so detection latency is [now -. since] *)
    | Still_down  (** already dead, no news *)
    | Recovered of { down_for : float }
        (** an ack arrived on a dead route; [down_for] is the outage
            length as the detector saw it *)

  val create : n_routes:int -> now:float -> t
  (** Fresh detector; every route starts [Alive] with [last-ok = now]. *)

  val observe :
    t ->
    route:int ->
    now:float ->
    injected:float ->
    acked:float ->
    frame_bytes:float ->
    verdict
  (** Feed one ack-report window for one route: [injected] bytes were
      put on the route during the window, [acked] bytes were reported
      delivered. A {!missed} window counts as a miss; any positive
      [acked] clears all suspicion. *)

  val dead : t -> int -> bool
  (** Is the route currently declared dead? *)

  val suspicion : t -> int -> int
  (** Current consecutive-miss count for the route — [0] when
      healthy, reset by any acked byte. Exposed so tests can assert
      that crash/restart flapping faster than [hello_timeout] leaks
      no Suspect state across recoveries. *)
end

val survivors :
  Multigraph.t -> caps:float array -> src:int -> routes:Paths.t list -> bool array
(** Per route, in list order: does every hop survive the LSDB
    re-discovery that {!rediscover} simulates from node [src]'s point
    of view? It computes the flood's outcome directly instead of
    simulating it. A node's fresh advertisement reaches [src] iff the
    node has a directed path of usable links ([caps > 0]) to [src],
    so those nodes are found by a breadth-first search backwards from
    [src]. {!Lsdb.graph} keeps an edge that either endpoint claims,
    so a link survives iff it is usable and one of those nodes has a
    usable link with the same endpoints and technology. The result
    equals testing every hop's {!rediscover} capacity for [> 0] (a
    property in the test suite checks it on random multigraphs), in
    time linear in the graph and without the flood's allocation.
    Raises [Invalid_argument] on a capacity vector of the wrong length
    or a bad [src]. *)

val rediscover :
  Multigraph.t ->
  caps:float array ->
  viewer:int ->
  float array * Lsdb.Flood.stats
(** The simulated re-flood that {!replan} routes on: every node is
    pre-seeded with its stale full-graph advertisement (sequence 1),
    live nodes re-advertise their currently usable links at sequence
    2 and flood them over the surviving connectivity, and the viewer
    keeps only the fresh generation. Returns the capacities masked to
    the intersection of ground truth ([caps]) and the viewer's
    re-discovered graph (a link absent from either is [0.]), with the
    flood's round and message counts. Dead and partitioned nodes
    therefore cannot resurrect their links. Raises [Invalid_argument]
    on a capacity vector of the wrong length, a negative or
    non-finite capacity, or a bad [viewer]. *)

val replan :
  Multigraph.t ->
  Domain.t ->
  caps:float array ->
  src:int ->
  dst:int ->
  Multipath.combination * Lsdb.Flood.stats
(** Full route re-discovery: the Section 3.2 multipath procedure on
    the original link-id space with the capacities {!rediscover}
    returns for viewer [src], and that flood's stats. Consumes no
    caller randomness. *)
