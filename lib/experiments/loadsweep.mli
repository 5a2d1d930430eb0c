(** Empirical heavy-traffic load sweep over the testbed topology.

    The production-style evaluation recipe (ns-2's [spine_empirical]):
    drive the network at a target {e load factor} — a fraction of the
    aggregate capacity EMPoWER allocates to a set of sender/receiver
    pairs — with open-loop flow arrivals whose sizes come from an
    empirical {!Cdf}, and report flow-completion-time (FCT)
    percentiles per size bucket.

    Per load factor: the testbed instance (seed 4242, as in {!Chaos})
    is planned and allocated for [pairs] random connected
    source/destination pairs; the pair set and the resulting
    contention-aware capacity [C = sum of allocated flow rates] depend
    only on [seed], not on the load. Each pair runs [conns] parallel
    connections (engine flows) at a [1/conns] share of the pair's
    allocated route rates, and is offered [load] times its own
    allocated rate by a {!Loadgen} schedule, so the aggregate offer is
    [load * C]. FCTs ([completion - arrival], queueing wait included)
    land in {!Obs.Metrics.Histogram}s bucketed by flow size —
    {e tiny} < 100 kB, {e short} < 5 MB, {e long} >= 5 MB, plus
    {e all} — reported as p50/p95/p99.

    Determinism: a point is a pure function of its parameters (equal
    seeds are bit-identical), and {!sweep} fans points out over
    domains with {!Exec.map}, so its output is byte-identical at any
    [jobs] count. One [seed] pins the pair draw, every pair's
    generator stream and the engine stream; generator draws are
    ordered gap/size/connection so sweeps at the same seed see
    common random numbers across load factors. *)

type bucket = {
  label : string;  (** ["tiny"] | ["short"] | ["long"] | ["all"] *)
  count : int;     (** completed transfers in the bucket *)
  p50 : float;     (** FCT percentiles in seconds; 0 when empty *)
  p95 : float;
  p99 : float;
}

type point = {
  load : float;          (** target load factor *)
  offered_load : float;  (** generator-achieved offer / capacity *)
  achieved_load : float; (** delivered bytes * 8 / (C * duration) *)
  arrivals : int;        (** transfers offered across all connections *)
  completed : int;       (** transfers finished within the run *)
  queue_drops : int;
  buckets : bucket list; (** tiny, short, long, all — in that order *)
  fcts : (int * float option) list;
      (** per offered transfer, in global arrival order: (size bytes,
          FCT seconds — [None] if unfinished at the end of the run).
          At a fixed seed, index [i] is the {e same} transfer (size,
          connection) at every load factor — arrival times all scale
          by the load — so sweeps can compare FCTs transfer by
          transfer (common random numbers). Not serialized in the
          [--json] figure. *)
}

type data = {
  seed : int;
  pairs : int;
  conns : int;
  duration : float;   (** arrival window (s) *)
  drain : float;      (** extra simulated time for backlog to finish *)
  capacity_mbps : float;  (** C: aggregate allocated capacity *)
  pacing : Workload.pacing;
  cdf : string;       (** {!Cdf.describe} of the distribution used *)
  points : point list;
}

val sweep :
  ?cdf:Cdf.t ->
  ?pairs:int ->
  ?conns:int ->
  ?duration:float ->
  ?drain:float ->
  ?pacing:Workload.pacing ->
  ?seed:int ->
  ?jobs:int ->
  float list ->
  data
(** The load factors' points merged into one [data] (each point is an
    independent pure job; results follow the input order, so output
    is byte-identical at any [jobs] count). Defaults: {!Cdf.websearch},
    4 pairs, 2 connections per pair, 30 s window + 10 s drain, CBR
    pacing, seed 17. Raises [Invalid_argument] for an empty list or a
    load factor outside (0, 1]. *)

val print : ?out:out_channel -> data -> unit
