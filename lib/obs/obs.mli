(** Structured tracing and metrics for the datapath, the control
    plane and the experiment harness.

    The paper's evaluation is made of quantities that live {e inside}
    a run — per-link airtime against the feasibility constraint (2),
    queue build-up, price/rate convergence, reorder behaviour — and
    this module is how the repository sees them. It follows the
    pattern established by {!Invariants}: the engine is threaded with
    narrow, optional hooks that cost nothing when disabled and never
    perturb the simulation when enabled (a sink only observes; it
    consumes no randomness and mutates no engine state, so results
    are bit-identical with and without one).

    Three layers:

    - {!Trace} — a typed event record for everything that happens on
      the datapath and control plane, with a JSONL wire format
      ({!Trace.encode} / {!Trace.decode}) whose schema is documented
      below. [Engine.run ~trace:sink] streams every event of the
      kinds the sink reads into it; [empower_eval trace <scenario>
      --out t.jsonl] streams them all from the command line.
    - {!Metrics} — a name-keyed registry of counters, gauges,
      windowed time series and streaming histograms, populated from
      the same events by a {!Recorder}, or directly by harness code.
    - {!Summary} — a trace replayer: recomputes per-flow goodput and
      delay distributions from a trace (in memory or from a JSONL
      file) so a trace can be cross-checked against the engine's own
      [flow_result] — the end-to-end proof that the instrumentation
      tells the truth.

    {2 JSONL schema}

    One event per line, one JSON object per event. Every object has:

    - ["ev"] : string — the event kind (see below);
    - ["t"] : float — simulation time in seconds.

    Kinds and their additional fields:

    {v
    enqueue    link flow seq bytes qlen   frame entered a link FIFO
                                          (qlen = queue length after)
    grant      link flow seq collided airtime
                                          MAC granted the medium; the
                                          frame occupies it for
                                          airtime seconds
    dequeue    link flow seq              frame left the link after a
                                          successful transmission
    collision  link flow seq              transmission ended collided
                                          (airtime wasted, frame lost)
    drop       link? flow seq reason      frame left the network
                                          undelivered; reason is one of
                                          queue_overflow | link_down |
                                          misroute | backlog_cleared |
                                          fault_injected
    delivery   flow seq bytes delay       frame released to the
                                          application at the
                                          destination (delay = one-way
                                          seconds since injection)
    price      link gamma price           control tick updated the
                                          link dual γ_l; price is the
                                          full congestion price
                                          d_l·Σ_{i∈I_l} γ_i
    rate       flow rates                 controller updated the
                                          flow's per-route rates
                                          (array of Mbit/s)
    ack        flow qr bytes              destination emitted its
                                          100 ms ACK (per-route q_r
                                          and byte counts)
    link       link capacity              link capacity changed
                                          (0 = failure)
    loss       link prob                  a fault plan set the link's
                                          frame-loss probability
    ctrl       drop delay                 a fault plan set the control
                                          plane's ACK drop probability
                                          and extra ACK latency
    route_dead flow route detect_s        the recovery detector declared
                                          a route dead (detect_s =
                                          latency since last known good)
    route_probe flow route attempt        a backoff-scheduled reclaim
                                          probe was injected on a dead
                                          route
    route_restored flow route down_s      an ACK came back on a dead
                                          route; rates restored after
                                          down_s seconds of outage
    price_reset link                      recovery expired a stale
                                          congestion price (γ_l := 0)
    v}

    Numbers are encoded with enough digits to round-trip
    bit-exactly, and the decoder accepts only finite ones, so
    [decode (encode e) = Ok e] for every event [e] that {!Trace.decode}
    returned and for every event whose numbers are finite. *)

(** Minimal JSON values — the wire format shared by the trace
    encoder, the metrics dumps and the harness's [--json] output.
    (The repository uses no external JSON dependency.) *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Compact rendering (no trailing newline). Floats are printed
      with round-trip precision; non-finite floats become [null]. *)

  val parse : string -> (t, string) result
  (** Strict parser for the subset this module emits (full JSON minus
      [\uXXXX] surrogate pairs). Exactly one top-level value is
      accepted: anything but whitespace after it is rejected as
      trailing garbage, and number tokens follow the strict JSON
      grammar (no leading [+], no leading zeros, no bare [.]) rather
      than OCaml's laxer conversions. [Error msg] pinpoints the byte
      offset of the offending token. *)

  val member : string -> t -> t option
  (** Field lookup in an [Obj]; [None] otherwise. *)

  val to_int_opt : t -> int option
  (** [Int n] and integral [Float]s inside the [int] range. *)

  val to_float_opt : t -> float option

  val to_string_opt : t -> string option

  (** {2 Strict field kit}

      Every document decoder in the repository — trace lines, fault
      plans, scenario specs and scorecards, the loadsweep and profile
      figures — reads its fields through these functions, so they
      share one error vocabulary: [missing field "x"] when the member
      is absent and [field "x": expected <type>] when it has the
      wrong type. A decoder that accepts a value can write it back:
      {!float_field} and {!number} reject non-finite numbers (a
      [1e400] literal parses to infinity, which {!to_string} writes
      as [null]). *)

  val field : string -> t -> (t, string) result
  (** The member itself, of any type. *)

  val int_field : string -> t -> (int, string) result
  (** As {!to_int_opt}: [Int n] and integral [Float]s. *)

  val float_field : string -> t -> (float, string) result
  (** A finite number, [Int] or [Float]. *)

  val string_field : string -> t -> (string, string) result
  val bool_field : string -> t -> (bool, string) result

  val obj_field : string -> t -> (t, string) result
  (** An [Obj] member, returned whole for its own fields to be read. *)

  val list_field :
    ?default:'a list -> string -> (t -> ('a, string) result) -> t ->
    ('a list, string) result
  (** Every element of a [List] member decoded in order; the first
      element error is returned as [field "x": <error>]. [default]
      stands in for an absent member. *)

  val integer : t -> (int, string) result
  val number : t -> (float, string) result
  (** Element decoders for {!list_field}, with {!int_field}'s and
      {!float_field}'s rules. *)

  val read_file : string -> (string, string) result
  (** The whole file, read once at its [in_channel_length]. *)

  val of_file : string -> (t, string) result
  (** {!read_file}, then {!parse} of the trimmed contents; a parse
      error is prefixed with the path. *)
end

(** Typed datapath/control-plane events and their JSONL codec. *)
module Trace : sig
  type drop_reason =
    | Queue_overflow   (** arriving frame hit a full FIFO *)
    | Link_down        (** head-of-line frame on a dead link *)
    | Misroute         (** no next hop matched the source route *)
    | Backlog_cleared  (** link failure flushed its queue *)
    | Fault_injected   (** a fault plan's loss window consumed the frame *)

  val drop_reason_name : drop_reason -> string

  type event =
    | Enqueue of { t : float; link : int; flow : int; seq : int; bytes : int; qlen : int }
    | Mac_grant of
        { t : float; link : int; flow : int; seq : int; collided : bool; airtime : float }
    | Dequeue of { t : float; link : int; flow : int; seq : int }
    | Collision of { t : float; link : int; flow : int; seq : int }
    | Drop of { t : float; link : int option; flow : int; seq : int; reason : drop_reason }
    | Delivery of { t : float; flow : int; seq : int; bytes : int; delay : float }
    | Price_update of { t : float; link : int; gamma : float; price : float }
    | Rate_update of { t : float; flow : int; rates : float array }
    | Ack of { t : float; flow : int; qr : float array; bytes : int array }
    | Link_event of { t : float; link : int; capacity : float }
    | Loss_event of { t : float; link : int; prob : float }
    | Ctrl_event of { t : float; drop : float; delay : float }
    | Route_dead of { t : float; flow : int; route : int; detect_s : float }
    | Route_probe of { t : float; flow : int; route : int; attempt : int }
    | Route_restored of { t : float; flow : int; route : int; down_s : float }
    | Price_reset of { t : float; link : int }
    | Ecn_mark of { t : float; link : int; flow : int; seq : int; occ : int }
        (** frame admitted with the CE bit set; [occ] = the port's byte
            occupancy that crossed the ECN threshold *)

  val time : event -> float
  val kind : event -> string
  (** The ["ev"] tag: ["enqueue"], ["grant"], ["dequeue"],
      ["collision"], ["drop"], ["delivery"], ["price"], ["rate"],
      ["ack"], ["link"], ["loss"], ["ctrl"], ["route_dead"],
      ["route_probe"], ["route_restored"], ["price_reset"], ["mark"]. *)

  val kinds : string list
  (** Every valid ["ev"] tag (the schema's closed set). *)

  val encode : event -> string
  (** One JSONL line (no trailing newline). *)

  val decode : string -> (event, string) result
  (** Strict: malformed JSON, an unknown ["ev"] kind, a missing or
      mistyped field, or a non-finite number is an [Error], in the
      {!Json.field} vocabulary. Whenever [decode s = Ok e],
      [decode (encode e) = Ok e]. *)

  (** A consumer of events. Emission never fails upward: sinks are
      observation only. Every sink names the event kinds it reads (all
      of them unless built with [?kinds]); an offer of a kind the sink
      does not read is skipped. *)
  type sink

  val of_fn : ?kinds:string list -> (event -> unit) -> sink
  (** A sink that calls the function on every event it takes.
      [kinds] (default: every kind) names the ["ev"] tags it reads,
      drawn from {!kinds}; any other name raises [Invalid_argument].
      {!collector} and [Recorder.sink] take the same argument. *)

  val none : sink
  (** Reads no kind. Passed to [Engine.run], it leaves the run
      unobserved, as passing no sink does, and still keeps the ambient
      metrics recorder ({!Runtime}) off, as every explicit sink
      does. *)

  val reads : sink -> string list
  (** The kinds the sink reads, in {!kinds} order: [[]] for {!none},
      {!kinds} for a sink built without [?kinds]. *)

  val emit : sink -> event -> unit
  (** Offer one event: delivered iff the sink reads its kind. *)

  val tee : sink -> sink -> sink
  (** Reads the kinds either side reads. Each offer goes to both
      sinks, left first, and each side takes only the kinds it reads. *)

  val to_channel : out_channel -> sink
  (** Writes one JSONL line per event. The caller owns the channel
      (flush/close). *)

  val collector : ?kinds:string list -> unit -> sink * (unit -> event list)
  (** In-memory sink; the closure returns events oldest-first. *)

  val counter : unit -> sink * (unit -> int)
  (** Cheapest possible sink — used to measure tracing overhead. *)
end

(** Always-on flight recorder: the last [capacity] trace events in a
    pre-allocated struct-of-arrays ring, and the engine's only
    emission point.

    Recording a datapath event stores its tag, time and scalar fields
    into fixed [int array] / [float array] columns — no event record
    is constructed, nothing grows, and no float is boxed on the way
    in (the writers read the time and their float operands from
    one-slot cells, see {!attach} and {!cell}), so the ring is cheap
    enough to leave attached to every run (see [flight_overhead_pct]
    in BENCH_sim.json; the only allocating writes are the two
    array-carrying control-plane kinds, {!Trace.Rate_update} and
    {!Trace.Ack}, a few per control period). Every writer, after
    storing its row, offers it to the sink attached with {!attach}:
    the row's tag is tested against the kinds the sink reads
    ({!Trace.reads}) first, and the event record is rebuilt from the
    row only when the sink reads its kind. The ring thus records every
    event whatever the sink's kinds, and its contents are the tail of
    what a sink of every kind received.

    {!Engine.run} accepts a recorder via [?flight] or creates one
    itself when the [EMPOWER_FLIGHT] environment variable is set, and
    dumps the ring to JSONL automatically when an invariant trips or
    any exception escapes the event loop; [empower_eval chaos
    --flight] does the same when a chaos run regresses. Dumps decode
    strictly with {!Trace.decode} and replay with {!Summary.of_file}. *)
module Flight : sig
  type t

  val create : ?capacity:int -> ?dump_path:string -> unit -> t
  (** Defaults: 65536 events, dumped to
      ["empower-flight-dump.jsonl"]. Raises [Invalid_argument] if
      [capacity < 1]. *)

  val recorded : t -> int
  (** Events ever written; the ring retains the last
      [min recorded capacity]. *)

  val attach : t -> clock:float array -> Trace.sink option -> unit
  (** Attach a run: its clock cell, whose slot 0 stamps every row a
      flat writer records from now on, and the sink ([Some s]) that
      every later write is offered to. {!Engine.run} attaches its
      [now] cell and its trace sink for the duration of the event
      loop. Raises [Invalid_argument] on an empty [clock]. *)

  val detach : t -> unit
  (** Drop the attached clock and sink: a fresh or detached ring has
      neither, offers rows to nobody, and stamps flat rows from its
      own cell (the time of the last {!event}). *)

  val event : t -> Trace.event -> unit
  (** Record one already-built event at its own time (generic path;
      the engine's path for the two array-carrying kinds). *)

  (** Flat per-kind writers, used by the engine so no event record is
      allocated unless an attached sink takes the row. No float
      crosses one of these calls on the per-frame and per-tick paths,
      where a float argument would be boxed: a row's time is read
      from the attached clock cell, {!grant}'s airtime and
      {!delivery}'s delay from {!cell}, and {!prices} reads a tick's
      rows from the caller's arrays. The rarer fault and recovery
      rows still take their float operands as arguments. *)

  val cell : t -> float array
  (** The ring's one-slot operand cell, the same array for the ring's
      whole life: set [(cell t).(0)] to the airtime before {!grant},
      and to the delay before {!delivery}. *)

  val enqueue : t -> link:int -> flow:int -> seq:int -> bytes:int -> qlen:int -> unit

  val grant : t -> link:int -> flow:int -> seq:int -> collided:bool -> unit
  (** Airtime from {!cell}. *)

  val dequeue : t -> link:int -> flow:int -> seq:int -> unit
  val collision : t -> link:int -> flow:int -> seq:int -> unit

  val drop :
    t -> link:int -> flow:int -> seq:int -> reason:Trace.drop_reason -> unit
  (** [link] is [-1] for a drop off any link ([link = None] in the
      event). *)

  val delivery : t -> flow:int -> seq:int -> bytes:int -> unit
  (** Delay from {!cell}. *)

  val prices :
    t -> links:int array -> gamma:float array -> price:float array -> unit
  (** One tick's price rows: for each [l] of [links], in order, a
      {!Trace.Price_update} row carrying [gamma.(l)] and [price.(l)],
      each offered to the sink as it is written. *)

  val link_event : t -> link:int -> capacity:float -> unit
  val loss_event : t -> link:int -> prob:float -> unit
  val ctrl_event : t -> drop:float -> delay:float -> unit
  val route_dead : t -> flow:int -> route:int -> detect_s:float -> unit
  val route_probe : t -> flow:int -> route:int -> attempt:int -> unit
  val route_restored : t -> flow:int -> route:int -> down_s:float -> unit
  val price_reset : t -> link:int -> unit
  val ecn_mark : t -> link:int -> flow:int -> seq:int -> occ:int -> unit

  val events : t -> Trace.event list
  (** Ring contents, oldest first (decoded back into event records —
      allocates; meant for dump/inspection time). *)

  val dump : ?path:string -> t -> (string * int, string) result
  (** Write the ring to [path] (default: the ring's dump path);
      [(path, n)] on success, the [Sys_error] text otherwise. *)

  val env_enabled : unit -> bool
  (** [true] iff [EMPOWER_FLIGHT] is set to anything but [""]/["0"]. *)

  val of_env : unit -> t
  (** A recorder configured from the environment: capacity from
      [EMPOWER_FLIGHT] when it parses as an int > 1 (default 65536),
      dump path from [EMPOWER_FLIGHT_DUMP]. *)
end

(** Hot-path profiler: wall clock and GC minor words attributed to
    the engine subsystem that handled each event, feeding the
    sub-300 ns/event roadmap item with per-subsystem data. Pass
    [~prof:(create ())] to {!Engine.run} (zero cost when absent), or
    run [empower_eval profile <scenario>]; aggregate numbers land in
    BENCH_sim.json as [prof_*] fields. Attribution includes a small
    constant self-cost per event (the [Gc.minor_words] reads inside
    the measured window — a few words and tens of nanoseconds). *)
module Prof : sig
  type t

  val categories : string array
  (** [[| "mac_phy"; "traffic"; "controller"; "tcp"; "recovery";
      "fault"; "scheduler" |]] — the closed category set, in id
      order. *)

  val cat_mac_phy : int
  val cat_traffic : int
  val cat_controller : int
  val cat_tcp : int
  val cat_recovery : int
  val cat_fault : int

  (** Event-queue pop/migrate work bracketed by the engine loop; only
      ever attributed via {!leave_silent}, so it contributes wall time
      and share but no events. *)
  val cat_scheduler : int

  val create : unit -> t

  val enter : t -> unit
  (** Stamp the clock and allocation counter before a handler runs. *)

  val leave : t -> int -> unit
  (** Attribute the elapsed wall time and minor words since {!enter}
      to the given category. *)

  val leave_silent : t -> int -> unit
  (** Like {!leave} but without tallying an event, for auxiliary work
      (scheduler pops) that must not inflate {!events} — the
      per-handler-event denominator benchmarks divide by. *)

  val events : t -> int
  val total_wall : t -> float

  type entry = {
    name : string;
    events : int;
    wall_s : float;
    ns_per_event : float;
    share_pct : float;        (** of the total attributed wall time *)
    minor_words : float;
    words_per_event : float;
  }

  val report : t -> entry list
  (** Non-empty categories, most expensive (wall) first. *)

  val entry_to_json : entry -> Json.t
  val entry_of_json : Json.t -> (entry, string) result
  (** [entry_of_json (entry_to_json e) = Ok e] for finite numbers. *)

  val to_json : t -> Json.t
  (** The ["profile"] figure consumed by [empower_eval report]: the
      {!events} count, the {!total_wall} seconds and the {!report}
      entries. *)

  (** A ["profile"] figure read back: what {!to_json} wrote. *)
  type document = {
    total_events : int;  (** ["events"] *)
    attributed_s : float;  (** ["wall_s"] *)
    entries : entry list;  (** ["categories"] *)
  }

  val document_of_json : Json.t -> (document, string) result

  val print_entries : ?out:out_channel -> entry list -> unit
  (** The hotspot table: a column header, then one row per entry. *)

  val print : ?out:out_channel -> t -> unit
  (** A one-line header, then {!print_entries} of {!report}. *)
end

(** Name-keyed registry of counters, gauges, time series and
    streaming histograms. *)
module Metrics : sig
  module Counter : sig
    type t

    val incr : t -> unit
    val add : t -> int -> unit
    val value : t -> int
  end

  module Gauge : sig
    type t

    val set : t -> float -> unit
    val value : t -> float
    (** 0 until first set. *)
  end

  (** Streaming histogram with bounded memory and deterministic,
      seed-free behaviour: log-spaced buckets with relative width
      [2ε/(1-ε)] (DDSketch-style), so any quantile is exact to within
      a relative error of [ε] (default 0.5%) while count, sum, mean,
      min and max are exact. Negative observations are clamped to the
      dedicated zero bucket (delays are never negative). Bucket counts
      sit in a dense array over the observed key range, about 230
      counts per decade of observed values at the default [ε]. *)
  module Histogram : sig
    type t

    val create : ?relative_error:float -> unit -> t
    val observe : t -> float -> unit

    val observe_cell : t -> float array -> unit
    (** [observe t cell.(0)], for per-event callers: the value comes
        through the caller's cell because a float argument of a call
        into this module is boxed. The cell is only read, during the
        call. *)

    val count : t -> int
    val sum : t -> float
    val mean : t -> float
    (** Exact ([sum/count]); 0 when empty. *)

    val minimum : t -> float
    (** Exact; 0 when empty. *)

    val maximum : t -> float
    (** Exact; 0 when empty. *)

    val quantile : t -> float -> float
    (** [quantile h q] with [q] in [0,1]; within the configured
        relative error of the exact order statistic. [q <= 0] and
        [q >= 1] return the exact minimum and maximum. 0 when
        empty. *)
  end

  (** Windowed time series: [(time, value)] points, appended in
      time order. *)
  module Series : sig
    type t

    val add : t -> float -> float -> unit
    val length : t -> int
    val points : t -> (float * float) list
  end

  type t

  val create : unit -> t

  val counter : t -> string -> Counter.t
  (** Get-or-create by name (and likewise below). A name holds one
      instrument kind; reusing it with another kind raises
      [Invalid_argument]. *)

  val gauge : t -> string -> Gauge.t
  val histogram : t -> ?relative_error:float -> string -> Histogram.t
  val series : t -> string -> Series.t

  val names : t -> string list
  (** Sorted. *)

  val to_json : t -> Json.t
  (** One object member per instrument: counters/gauges as numbers,
      histograms as [{count,mean,min,max,p50,p95,p99}], series as
      [{n,last,mean}]. *)

  val print_summary : ?out:out_channel -> t -> unit
  (** Human-readable dump, sorted by name. *)

  val merge : into:t -> t -> unit
  (** [merge ~into other] folds every instrument of [other] into
      [into], matching by name: counters and histograms sum (bucket by
      bucket — both sides must use the same relative error), series
      points append after [into]'s existing points, and gauges take
      [other]'s value if it was ever set. [Exec.map] uses this to fold
      per-job registries back into the submitter's registry in
      submission order, so a parallel run's merged registry reports the
      same values as the sequential run's single registry (series point
      order included). Raises [Invalid_argument] on an instrument-kind
      or histogram-precision mismatch. [other] is unchanged. *)
end

(** Populates a {!Metrics.t} registry from trace events. Metric
    names:

    - ["mac.collisions"], ["mac.grants"], ["drops.<reason>"],
      ["trace.events"] — counters;
    - ["link.<l>.util"] — per-window airtime fraction of link [l]
      (time series), and ["link.<l>.queue"] — queue occupancy sampled
      at window boundaries;
    - ["domain.<l>.busy"] — per-window busy fraction of [l]'s
      interference domain I_l, i.e. the left side of feasibility
      constraint (2) (needs [~domain_of]);
    - ["flow.<f>.delay"] — exact-count streaming histogram of one-way
      delivery delays; ["flow.<f>.goodput"] — delivered Mbit/s per
      window (series; once the flow has delivered, every whole-second
      window from the first has a point, 0 for a window in which it
      delivered nothing, as in the engine's own goodput bins; the
      partial window {!Recorder.flush} closes has a point only when
      the flow delivered in it); ["flow.<f>.rate"] — controller total
      rate at each update (series); ["flow.<f>.rate_delta"] — absolute
      rate movement per update (series);
    - ["ctrl.price_delta"] — max |Δγ| per control tick (series);
      ["ctrl.gamma_max"] — running max γ (gauge);
    - fault / degradation metrics (populated when the trace carries
      fault boundary events, i.e. [link] / [loss] / [ctrl] kinds):
      ["fault.events"] — boundary-event counter; ["fault.first_s"] /
      ["fault.last_s"] — span of the fault schedule (gauges);
      ["flow.<f>.reroutes"] — how often the flow's highest-rate route
      changed (counter); and, computed at {!Recorder.flush} per flow
      against a pre-fault goodput baseline:
      ["flow.<f>.fault.dip_depth"] (Mbit/s below baseline at the
      worst window), ["flow.<f>.fault.dip_area"] (Mbit/s·s of goodput
      lost to the dip) and ["flow.<f>.fault.recovery_s"] (time after
      the last fault boundary until goodput is back within 90% of the
      baseline; -1 = never recovered);
    - recovery metrics (populated when the engine runs under the
      [Heal] dead-route policy): ["recovery.route_deaths"] /
      ["recovery.probes"] / ["recovery.route_restores"] /
      ["recovery.price_resets"] — event counters;
      ["flow.<f>.fault.detect_s"] — worst detection latency of the
      run (gauge); ["flow.<f>.fault.down_s"] — longest detected
      outage that was subsequently restored (gauge);
      ["flow.<f>.route_deaths"] / ["flow.<f>.route_restores"] —
      per-flow route death / restore counters;
      ["flow.<f>.fault.outage_s"] — outage seconds accumulated over
      every restored route death of the run (gauge). *)
module Recorder : sig
  type t

  val create : ?domain_of:(int -> int array) -> Metrics.t -> t
  (** A recorder bucketing its time series into 1 s windows.
      [domain_of l] lists the links of I_l (including [l]) and
      enables the per-domain busy metric. *)

  val sink : ?kinds:string list -> t -> Trace.sink
  (** The recorder's sink, reading [kinds] (default: every kind; see
      {!Trace.of_fn}). Metrics fed only by kinds it does not read stay
      absent from the registry. *)

  val flush : t -> now:float -> unit
  (** Close the final partial window at end of run. *)

  type dip = {
    dip_depth : float;  (** Mbit/s below the baseline at the worst point, >= 0 *)
    dip_area : float;  (** Mbit/s·s of goodput lost to the dip *)
    recovery_s : float;  (** after the last fault boundary; -1 = never *)
  }

  val degradation :
    fault_first:float ->
    fault_last:float ->
    (float * float) list ->
    dip option
  (** The fault metrics {!flush} writes for each flow, from a goodput
      series of [(bin end time, Mbit/s)] points in time order and the
      span of the fault boundary events. The baseline is the mean of
      the points stamped at or before [fault_first], or of the last
      three points when there are none. Over the points after
      [fault_first]: [dip_depth] is the largest shortfall below the
      baseline, [dip_area] sums the shortfalls times the 1 s window,
      and [recovery_s] is the time from [fault_last] to
      the first point at or after it that is back to 90% of the
      baseline. [None] when the baseline is not positive. *)
end

(** Replay a trace and recompute what the engine reported — the
    cross-check that the instrumentation and the simulation agree. *)
module Summary : sig
  type flow_stats = {
    flow : int;
    delivered_frames : int;
    delivered_bytes : int;
    goodput_mbps : float;      (** delivered_bytes·8e-6 / duration *)
    mean_delay : float;        (** exact, over every delivery *)
    p50_delay : float;         (** exact order statistic *)
    p95_delay : float;         (** exact order statistic *)
    p99_delay : float;         (** exact order statistic *)
    max_delay : float;
    rate_updates : int;
    final_rates : float array; (** last Rate_update seen; [||] if none *)
  }

  (** Self-healing activity replayed from the trace's recovery
      events. *)
  type recovery_stats = {
    route_deaths : int;
    route_restores : int;
    route_probes : int;
    price_resets : int;
    max_detect_s : float;  (** worst detection latency; 0 when none *)
    max_down_s : float;    (** worst outage span; 0 when none *)
  }

  type t = {
    duration : float;
    events : int;
    flows : flow_stats list;               (** sorted by flow id *)
    drops : (Trace.drop_reason * int) list;
    collisions : int;
    grants : int;
    marks : int;                           (** CE-marked frame admissions *)
    link_airtime : (int * float) list;     (** seconds on air per link, sorted *)
    recovery : recovery_stats;
  }

  val of_events : duration:float -> Trace.event list -> t

  val read_file : string -> (Trace.event list, string) result
  (** Read a JSONL trace with the strict decoder; the first malformed
      line or unknown event kind is an [Error] naming the line number.
      Blank lines are rejected too. *)

  val of_file : duration:float -> string -> (t, string) result
  (** [read_file] folded by [of_events]. *)

  val flow_stats : t -> int -> flow_stats option

  val print : ?out:out_channel -> t -> unit
end

(** The first divergence of two JSONL files (traces, flight dumps),
    line by line — one line per event. *)
module Diff : sig
  type t = {
    index : int;            (** 0-based index of the first differing line *)
    context : string list;  (** the shared lines just before it, oldest first *)
    a : string option;      (** that line of the first file; [None] past its end *)
    b : string option;      (** that line of the second file *)
  }
  (** Lines keep their ["\n"] terminator, so a missing final newline
      is a difference too. *)

  val files : string -> string -> (t option, string) result
  (** Read both files to the first differing line, keeping up to
      three shared lines before it: [Ok None] when the files are
      byte-identical, [Error] when one cannot be opened. *)

  val print : a:string -> b:string -> t -> unit
  (** The divergence, on stdout, as a unified-diff-style excerpt: the
      index, the shared context lines, then the first file's line ([-])
      and the second's ([+]). Line numbers are 1-based. *)
end

(** Ambient metrics registry, for instrumenting code that is too deep
    to thread a sink through (the [--metrics] flag of the experiment
    commands; the [EMPOWER_METRICS] environment variable). When
    installed, every [Engine.run] without an explicit [?trace] attaches
    a {!Recorder} over this registry.

    The registry slot is {e domain-local} ([Domain.DLS]), not
    process-global: each worker domain spawned by [Exec.map] has its
    own slot, jobs run against a private per-job registry, and the
    executor merges those registries into the submitter's registry in
    submission order (see {!Metrics.merge}) — so parallel runs report
    the same merged metrics as sequential ones. *)
module Runtime : sig
  val install_metrics : unit -> Metrics.t
  (** Install (or return the already-installed) registry for the
      calling domain. *)

  val metrics : unit -> Metrics.t option
  (** The calling domain's registry, if installed (or if
      [EMPOWER_METRICS] is set, in which case the first call
      installs it). *)

  val clear : unit -> unit
  (** Uninstall the calling domain's registry. *)
end
