(** Deterministic fault injection: a typed DSL of timed fault
    actions, compiled into the event streams that {!Engine.run}
    already understands.

    A {e fault plan} is a list of {!action}s. Plans are plain data:
    they can be written by hand, decoded from JSON ({!decode} /
    {!of_json}) or drawn reproducibly from a seed ({!Gen.plan}).
    {!compile} lowers a plan against a concrete {!Multigraph.t} into
    three sorted event schedules — capacity changes, frame-loss
    probability changes and control-plane fault changes — that are
    passed to the engine as [~link_events], [~loss_events] and
    [~ctrl_events]. The compiler never talks to the engine, so this
    library depends only on the graph layer and plans stay valid
    across engine versions.

    {2 Semantics}

    - Capacity actions ({!action.Link_down}, {!action.Link_up},
      {!action.Capacity_set}, {!action.Capacity_ramp}) drive the
      engine's capacity hook. Capacity 0 is a failure: the engine
      flushes the link's queue (frames drop with reason
      [backlog_cleared]) and MAC holders finish their slot into a
      dead link.
    - {!action.Node_crash} fails {e every} directed link incident to
      the node (out-links and in-links), flushing their queues;
      {!action.Node_restart} restores those links to the capacities
      recorded in the graph the plan was compiled against.
    - {!action.Loss_window} sets a per-link frame-loss probability
      for an interval. A lossy frame still wins the MAC and occupies
      the medium for its full airtime — like a collision — and is
      then dropped with reason [fault_injected].
    - {!action.Ctrl_drop} / {!action.Ctrl_delay} set the control
      plane's ACK-drop probability / extra ACK latency for an
      interval (EMPoWER's 100 ms reports; TCP's in-band cumulative
      ACKs are transport payload and are not affected).

    {2 Tie-break contract}

    {!normalize} sorts actions by start time with a {e stable} sort,
    so actions scheduled at the same instant keep their plan order,
    and {!compile} preserves that order in its output schedules. The
    engine pops equal-time events FIFO, therefore: {b equal-time
    actions apply in plan order, and the last one wins}. Concretely,
    [Link_down] at [t] followed by [Capacity_set] at [t] first
    flushes the queue (the down is applied, dropping queued frames)
    and then restores the capacity — the link ends up alive but
    empty. The reverse order leaves the link dead. Overlapping
    windows do not stack: each window boundary sets the current
    value, so the boundary most recently applied wins.

    {2 Seeding contract}

    {!Gen.plan} consumes randomness only from the {!Rng.t} it is
    given, in a fixed documented order, so equal seeds yield equal
    plans byte-for-byte; combined with the engine's own determinism
    contract, a [(plan seed, engine seed)] pair pins down an entire
    chaos run bit-exactly. *)

type action =
  | Link_down of { at : float; link : int }
      (** Capacity of directed link [link] becomes 0 at [at]. *)
  | Link_up of { at : float; link : int; capacity : float }
      (** Link [link] comes back at [capacity] Mbit/s. *)
  | Capacity_set of { at : float; link : int; capacity : float }
      (** Degrade (or improve) a link without killing it. *)
  | Capacity_ramp of {
      at : float;
      link : int;
      from_cap : float;
      to_cap : float;
      over : float;  (** ramp duration, > 0 *)
      steps : int;  (** >= 1 capacity steps after the initial set *)
    }
      (** Piecewise-linear capacity ramp: capacity is set to
          [from_cap] at [at], then stepped linearly to reach
          [to_cap] at [at +. over] in [steps] equal steps. *)
  | Loss_window of { at : float; until : float; link : int; prob : float }
      (** Frames granted the MAC on [link] are lost with probability
          [prob] for [at <= t < until]. *)
  | Ctrl_drop of { at : float; until : float; prob : float }
      (** EMPoWER 100 ms ACK reports are dropped with probability
          [prob] for [at <= t < until]. *)
  | Ctrl_delay of { at : float; until : float; delay : float }
      (** ACK reports take an extra [delay] seconds for
          [at <= t < until]. *)
  | Node_crash of { at : float; node : int }
      (** All directed links incident to [node] fail at [at]. *)
  | Node_restart of { at : float; node : int }
      (** All links incident to [node] return to the capacities of
          the graph the plan is compiled against. *)
  | Node_flap of {
      at : float;
      until : float;
      node : int;
      period : float;
      duty : float;
    }
      (** Long-horizon crash/restart flapping (plan version 2): the
          node crashes at [at + k *. period] for [k = 0, 1, ...] and
          restarts [duty *. period] seconds later; only cycles whose
          restart fits inside [until] run, so the node always ends
          restored. Requires [period > 0], [duty] in [(0,1)] and a
          window long enough for one full cycle. *)
  | Capacity_drift of {
      at : float;
      until : float;
      link : int;
      floor_frac : float;
      period : float;
      steps : int;
    }
      (** Slow repeating capacity ramp (plan version 2): each
          [period]-long cycle steps the link from its compiled
          nominal capacity down to [floor_frac] of it over half the
          period in [steps] equal setpoints, then back up. Only full
          cycles inside [until] run, so the link always ends at its
          nominal capacity. *)
  | Node_join of { at : float; node : int }
      (** Deferred activation (plan version 2): every link incident
          to [node] is held at capacity 0 from the start of the run
          and comes alive at [at] with the compiled capacities —
          i.e. the node "joins" the network mid-run. [at] must be
          strictly positive. *)

type plan = action list

val empty : plan

val start_time : action -> float
(** The instant the action first takes effect ([at]; [0.] for
    {!action.Node_join}, whose links are held down from the start). *)

val end_time : action -> float
(** The instant the action stops changing the network: [until] for
    windowed actions, [at +. over] for ramps, [at] for instantaneous
    actions and joins. *)

val op_name : action -> string
(** Stable identifier used by the JSON codec (["link_down"], ...). *)

val plan_version : plan -> int
(** Codec version the plan encodes as: [2] when any churn action
    ({!action.Node_flap}, {!action.Capacity_drift},
    {!action.Node_join}) is present, else [1] — so legacy plans keep
    their byte-exact version-1 encoding. *)

val normalize : plan -> plan
(** Stable sort by {!start_time}; equal-time actions keep plan
    order (the tie-break contract above). *)

val validate : Multigraph.t -> plan -> (unit, string) result
(** Checks every action against the graph: times finite and [>= 0],
    windows with [until > at], probabilities in [[0,1]], capacities
    finite and [>= 0], delays finite and [>= 0], [steps >= 1],
    [over > 0], link ids in [[0, num_links)], node ids in
    [[0, num_nodes)]. The [Error] names the offending action. *)

(** The engine-ready schedules a plan lowers to. Each list is sorted
    by time (equal times in plan order) and uses the exact tuple
    shapes [Engine.run] takes. *)
type compiled = {
  link_events : (float * int * float) list;  (** (t, link, capacity) *)
  loss_events : (float * int * float) list;  (** (t, link, loss probability) *)
  ctrl_events : (float * float * float) list;
      (** (t, ack drop probability, extra ack delay) — both values
          are set atomically at [t]. *)
}

val compile : Multigraph.t -> plan -> compiled
(** Normalizes, validates (raising [Invalid_argument] on a bad
    plan) and lowers the plan. [compile g []] is three empty lists,
    so an empty plan reproduces the unfaulted run exactly. *)

val to_json : plan -> Obs.Json.t
val of_json : Obs.Json.t -> (plan, string) result
(** Strict: unknown ["op"], missing / mistyped fields (in the
    {!Obs.Json.field} vocabulary), non-finite numbers and bad
    ["version"] are [Error]s, and a version-1 document containing a
    version-2 op is rejected. Versions 1 and 2 are accepted.
    [of_json (to_json p) = Ok p] for every plan with finite numbers,
    so [decode (encode p) = Ok p] whenever [decode] returned [p]. *)

val encode : plan -> string
(** Compact JSON, no trailing newline. *)

val decode : string -> (plan, string) result

(** Random-but-reproducible plans from a seed and an intensity
    profile. *)
module Gen : sig
  type intensity = Light | Moderate | Heavy | Severing | Churn

  val intensity_name : intensity -> string
  (** ["light"] | ["moderate"] | ["heavy"] | ["severing"] |
      ["churn"]. *)

  val intensity_of_name : string -> intensity option

  val plan :
    ?intensity:intensity ->
    ?clear_by:float ->
    ?victim:int ->
    ?protect:int list ->
    Rng.t ->
    Multigraph.t ->
    duration:float ->
    plan
  (** Draw a plan for a run of [duration] seconds. Every injected
      fault both starts and clears strictly before [clear_by]
      (default [duration /. 2.]), leaving the tail of the run for
      recovery measurement. Fault counts: [Light] 1–2, [Moderate]
      3–5 (default), [Heavy] 6–10. Kinds drawn per fault: link
      flaps (both directions of an edge), capacity degradations,
      capacity ramps, loss windows, control drop/delay windows and
      node crash/restart pairs.

      [Severing] is the full-severance profile: it crashes exactly
      one node — [victim] when given, else drawn uniformly — for one
      bounded window inside [0.2, clear_by], then restarts it. A
      crash kills {e every} link the node terminates, so every route
      of any flow with the victim as an endpoint is guaranteed down
      for the whole window; pin [victim] to a flow endpoint to sever
      that flow. Draw order (part of the seeding contract): victim
      (only when not pinned), then the window; non-severing
      intensities never consume the victim draw, so pre-existing
      plans are byte-stable. [victim] is ignored by non-severing
      intensities.

      [Churn] is the long-horizon profile: it ignores [clear_by] and
      draws sustained {!action.Node_flap} cycles (1–2), slow
      {!action.Capacity_drift} ramps (1–2) and one deferred
      {!action.Node_join}, with windows extending to ~0.9 x
      [duration]. Draw order (seeding contract): flap count, then
      per flap node / start / period / duty / until; drift count,
      then per drift link / floor / start / until / cycle count;
      finally the join node and join time. Requires
      [duration >= 10].

      [protect] is a node set that generated churn must route
      around: node victims (crash / restart, flaps, joins, the
      unpinned severing victim) are drawn only from unprotected
      nodes, and link victims (flaps, degradations, ramps, loss
      windows, drifts) only from links with both endpoints
      unprotected — so passing a flow's endpoints guarantees a
      generated plan never severs that flow's last route at its
      source or destination. Victims are drawn by indexing the
      ascending array of eligible ids, so an empty [protect]
      consumes exactly the draws of the pre-[protect] generator and
      existing seeded plans are byte-stable. A pinned Severing
      [victim] overrides [protect]: severing a protected node must
      be asked for explicitly.

      Raises [Invalid_argument] if [clear_by < 1.0],
      [clear_by > duration], the victim or a protected node is out
      of range, the graph has no links, [protect] leaves no
      eligible victim, or [duration < 10] for [Churn]. *)
end
