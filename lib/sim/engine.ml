type transport = Udp | Tcp_transport

type flow_spec = {
  src : int;
  dst : int;
  routes : Paths.t list;
  init_rates : float list;
  workload : Workload.t;
  transport : transport;
  tcp_params : Tcp.params option;
  start_time : float;
  stop_time : float option;
}

type buffer_policy = Static | Dynamic_threshold of float

type buffers = {
  policy : buffer_policy;
  pool_bytes : int;
  ecn_threshold_bytes : int option;
}

type dead_route = Abandon | Probe_floor | Heal

type config = {
  frame_bytes : int;
  delta : float;
  enable_cc : bool;
  delay_equalize : bool;
  control_period : float;
  collision_prob : float;
  dead_route : dead_route;
  buffers : buffers option;
}

let default_config =
  {
    frame_bytes = 12000;
    delta = 0.0;
    enable_cc = true;
    delay_equalize = false;
    control_period = 0.1;
    collision_prob = 0.12;
    dead_route = Abandon;
    buffers = None;
  }

let queue_limit = 100
let gamma_alpha = 0.02
let cc_gain = 50.0

type flow_result = {
  received_bytes : int;
  goodput_series : (float * float) list;
  rate_series : (float * float array) list;
  completions : (float * float) list;
  frames_lost : int;
  final_rates : float array;
  mean_delay : float;
  p95_delay : float;
}

type perf = {
  wall_s : float;
  events_per_s : float;
  wall_per_sim_s : float;
  peak_queue_depth : int;
}

let zero_perf =
  { wall_s = 0.0; events_per_s = 0.0; wall_per_sim_s = 0.0; peak_queue_depth = 0 }

type result = {
  flows : flow_result array;
  duration : float;
  queue_drops : int;
  ecn_marks : int;
  buffer_peak_bytes : int;
  events_processed : int;
  perf : perf;
}

let strip_perf r = { r with perf = zero_perf }

(* ---------- internal state ---------- *)

(* The layer-2.5 header travels de-structured and unboxed: [seq]
   lives in the frame record, while the running q_r accumulator and the
   send time live in the run's float columns ([Pool.qr], [Pool.sent_at])
   at the frame's pool [id] — a float field of this mixed record would
   be boxed, so each per-hop price stamp and each injection would
   allocate. The source-route itself never rides in the frame at all —
   forwarding is pre-resolved into per-(flow, route) plan arrays at
   bootstrap (see [plans] in [run]). Records are recycled through the
   run's [Pool], so every field but [id] is rewritten at injection. *)
type packet = {
  id : int;  (* pool row of this record, fixed for the run *)
  mutable flow : int;
  mutable route_idx : int;
  mutable seq : int;
  mutable bytes : int;
  mutable hop : int;
  mutable ce : bool;  (* ECN congestion-experienced; sticky across hops *)
}

type file_rec = {
  arrival : float;
  fbytes : int;
  mutable started_at : float;
  mutable done_at : float;  (* < 0 while pending *)
}

(* What an idle link's [on_air] holds, so a grant stores the frame
   itself instead of allocating a [Some]. Never queued or sent, so its
   mutable fields are never written. *)
let no_frame = { id = -1; flow = -1; route_idx = 0; seq = 0; bytes = 0; hop = 0; ce = false }

(* The run's frame pool (libmoon's traffic generator likewise sends
   from a mempool instead of allocating each packet): injection takes
   a record off the free stack, and the frame's one terminal point — a
   collision, [drop_frame] (every drop reason, the backlog flush
   included) or the end of [release_packet] — pushes it back, so the
   steady state allocates no frame. A record minted while the stack is
   empty keeps its id for the run; the free stack and the float
   columns grow with the ids, so the stack can always hold every
   record. [live] is what the invariant checker audits against the
   frames the engine still holds. *)
module Pool = struct
  type t = {
    mutable free : packet array;  (* free.(0 .. n_free - 1) *)
    mutable n_free : int;
    mutable minted : int;  (* records made; ids 0 .. minted - 1 *)
    mutable qr : float array;  (* by id: q_r so far, saturating at Header.qr_max *)
    mutable sent_at : float array;  (* by id: injection time *)
  }

  let create () = { free = [||]; n_free = 0; minted = 0; qr = [||]; sent_at = [||] }
  let live t = t.minted - t.n_free

  let take t =
    if t.n_free > 0 then begin
      t.n_free <- t.n_free - 1;
      t.free.(t.n_free)
    end
    else begin
      let id = t.minted in
      if id = Array.length t.free then begin
        (* The stack is empty, so only the columns carry data over. *)
        let cap = max 64 (2 * id) in
        let widen a =
          let a' = Array.make cap 0.0 in
          Array.blit a 0 a' 0 id;
          a'
        in
        t.qr <- widen t.qr;
        t.sent_at <- widen t.sent_at;
        t.free <- Array.make cap no_frame
      end;
      t.minted <- id + 1;
      { no_frame with id }
    end

  let release t p =
    t.free.(t.n_free) <- p;
    t.n_free <- t.n_free + 1
end

(* Per-link hot floats (service timestamps, windowed arrival bits) live
   in dedicated float arrays rather than record fields: a mutable float
   field of a mixed record is boxed and every write allocates, while a
   float-array store does not. *)
type link_state = {
  queue : packet Fifo.t;
  mutable on_air : packet;  (* [no_frame] while idle *)
  mutable air_collided : bool;
  mutable air_faulted : bool;  (* frame-loss fault hit this transmission *)
  mutable had_traffic : bool;
  estimator : Estimator.t;
}

type flow_state = {
  id : int;
  spec : flow_spec;
  routes : Paths.t array;
  route_links : int array array;
  route_codes : Route_codec.route array;
  x : float array;
  x_bar : float array;
  alpha : Alpha.t;
  mutable next_seq : int;
  mutable active : bool;
  mutable inject_scheduled : bool;
  (* workload *)
  files : file_rec array;       (* empty for Saturated *)
  (* receiver *)
  reorder : int Reorder.t;  (* buffers each frame's byte count *)
  collector : Ack.collector;
  equalizer : Reorder.Equalizer.t;
  mutable received_bytes : int;
  mutable delivered_in_order_bytes : int;
  mutable lost : int;
  (* failure detection: bytes injected per route since the last ACK,
     and how many consecutive ACKs reported nothing back *)
  injected_window : float array;
  dead_acks : int array;
  (* self-healing ([Heal], UDP only): the route-death detector, the
     reclaim-probe attempt counters, and the routing-estimated rates
     restored when a dead route heals *)
  healing : Recovery.Detector.t option;
  reclaim_attempt : int array;
  (* Probe-chain generation per route: bumped on every route death so
     probes scheduled by an earlier outage become stale no-ops instead
     of running as a second concurrent chain under fast flapping. *)
  reclaim_gen : int array;
  init_x : float array;
  (* tcp — the token bucket's floats live in per-flow arrays in [run] *)
  tcp : Tcp.t option;
  (* traces — goodput-bin floats likewise *)
  mutable goodput_rev : (float * float) list;
  mutable rates_rev : (float * float array) list;
  delay_hist : Obs.Metrics.Histogram.t;  (* every one-way frame delay *)
  reverse_latency : float;
}

(* Events travel through the wheel as flat ints — a 4-bit tag plus
   packed operands (see [Arena] for the layout table). Payloads that
   cannot pack (ACK reports, equalizer-held packets, fault boundary
   values) ride in typed slot stores and are released on dispatch. *)

let mbps_of_bits bits seconds = bits /. 1e6 /. seconds

let run ?(config = default_config) ?invariants ?trace ?flight ?prof
    ?(link_events = []) ?(loss_events = []) ?(ctrl_events = []) rng g dom
    ~flows ~duration =
  let n_links = Multigraph.num_links g in
  let inv =
    match invariants with
    | Some _ -> invariants
    | None -> if Invariants.env_enabled () then Some (Invariants.create ()) else None
  in
  (* Observability: an explicit sink wins; otherwise a process-global
     metrics registry (--metrics / EMPOWER_METRICS) attaches a
     recorder. Sinks only observe — they consume no randomness and
     mutate no engine state, so results are identical either way. *)
  let recorder =
    match trace with
    | Some _ -> None
    | None -> (
      match Obs.Runtime.metrics () with
      | Some reg -> Some (Obs.Recorder.create ~domain_of:(Domain.domain dom) reg)
      | None -> None)
  in
  let trace =
    match (trace, recorder) with
    | (Some _ as t), _ -> t
    | None, Some r -> Some (Obs.Recorder.sink r)
    | None, None -> None
  in
  (* Flight recorder: explicit argument, or ambient via EMPOWER_FLIGHT
     (the always-on crash recorder). Like a sink it only observes —
     no randomness, no engine state — so results are bit-identical
     with or without it. On an invariant trip or any other exception
     escaping the event loop the ring is dumped to JSONL. *)
  let flight =
    match flight with
    | Some _ -> flight
    | None -> if Obs.Flight.env_enabled () then Some (Obs.Flight.of_env ()) else None
  in
  let fl_on = Option.is_some flight in
  (* One observation stream: every emission site writes its event once,
     into the ring, and the ring offers each row to the sink (a
     one-slot ring stands in when only a sink is given). With neither
     a ring nor a sink that reads some kind, every site is a single
     never-taken branch on [obs_on]. *)
  let obs_on =
    fl_on
    || match trace with Some s -> Obs.Trace.reads s <> [] | None -> false
  in
  let fl =
    match flight with Some f -> f | None -> Obs.Flight.create ~capacity:1 ()
  in
  (* A grant's airtime and a delivery's delay reach the ring through
     its operand cell, and every row's time through the [now] cell the
     event loop attaches: a float passed as an argument would box. *)
  let fl_cell = Obs.Flight.cell fl in
  (* Live link capacities: start from the graph's and follow the
     scheduled capacity-change / failure events. *)
  let caps = Multigraph.capacities g in
  let[@inline] cap l = caps.(l) in
  (* Fault state driven by the scheduled loss / control-fault events:
     per-link frame-loss probability and the control plane's current
     (ack drop probability, extra ack latency) pair. All zero unless a
     fault plan says otherwise, and the random draws they guard happen
     only while a fault is active — so a run with no fault events
     consumes exactly the same randomness as before. *)
  let loss = Array.make n_links 0.0 in
  (* Hot mutable floats live in one-slot (or per-link / per-flow)
     [float array]s: a float array stores its elements unboxed, so
     updating one is a plain store, where assigning a [float ref]
     allocates a fresh boxed float on every write. *)
  let ctrl_drop = Array.make 1 0.0 in
  let ctrl_delay = Array.make 1 0.0 in
  let queue_drops = ref 0 in
  let events_processed = ref 0 in
  let now = Array.make 1 0.0 in
  let n_flows = List.length flows in
  if n_flows > Arena.max_flow then
    invalid_arg "Engine.run: too many flows for the event encoding";
  if n_links > Arena.max_link then
    invalid_arg "Engine.run: too many links for the event encoding";
  (* Payload stores for the events whose operands don't pack into the
     int encoding; slots are released as the events dispatch. *)
  let ack_slots : Ack.t Arena.Slots.t = Arena.Slots.create () in
  let pkt_slots : packet Arena.Slots.t = Arena.Slots.create () in
  let pair_slots : (float * float) Arena.Slots.t = Arena.Slots.create () in
  let f_slots = Arena.Fslots.create () in
  let f_cell = Arena.Fslots.cell f_slots in
  let pool = Pool.create () in
  (* Frames the delay equalizer holds back (queued Reorder_release
     events): with the queues and the media, all the frames the pool
     has out. *)
  let held = ref 0 in
  (* Pre-size the event queue from the topology: steady state holds at
     most one Tx_end per link plus a handful of pacing/ack/timer events
     per flow, and the bootstrap enqueues every fault event up front. *)
  let q =
    Wheel.create
      ~capacity:
        (64 + (2 * n_links) + (8 * n_flows)
        + List.length link_events + List.length loss_events
        + List.length ctrl_events)
      ()
  in
  (* Deferred-pop fusion: the event being handled stays at the wheel
     minimum while its handler runs ([pending_drop] is set); the first
     event the handler schedules replaces it via [Wheel.drop_push],
     later ones are plain pushes, and a handler that schedules nothing
     has its minimum dropped afterwards. This is sound because every
     scheduled event lands at [now + dt] with [dt >= 0] and [now >=]
     the minimum's timestamp, so no push can overtake the in-flight
     minimum (FIFO tie-break: equal priority loses to the older
     sequence number). *)
  let pending_drop = ref false in
  (* [@inline] on the float helpers below: a local function is called
     out of line with its float arguments and result boxed, and this
     compiler (no flambda) inlines one only when asked to. *)
  let push_prio = Wheel.push_prio_cell q in
  let[@inline] schedule_abs t ev =
    push_prio.(0) <- t;
    if !pending_drop then begin
      pending_drop := false;
      Wheel.drop_push q ev
    end
    else Wheel.push q ev
  in
  let[@inline] schedule dt ev = schedule_abs (now.(0) +. dt) ev in
  (* [Rng.float rng], bit for bit, without its boxed result. *)
  let[@inline] uniform () = float_of_int (Rng.bits53 rng) *. 0x1p-53 in
  (* Per-flow hot floats (see the float-array note above): TCP token
     bucket and goodput-bin accumulators, indexed by flow id. *)
  let tokens = Array.make (max 1 n_flows) (float_of_int config.frame_bytes) in
  let tokens_at = Array.make (max 1 n_flows) 0.0 in
  let bin_start = Array.make (max 1 n_flows) 0.0 in
  let bin_bits = Array.make (max 1 n_flows) 0.0 in

  (* --- links --- *)
  let links =
    (* Estimator streams are split off [rng] in link-id order by an
       explicit loop: Array.init's evaluation order is unspecified and
       must not decide the seeding (see the determinism contract in
       the interface). *)
    let est_rngs = Array.init n_links (fun _ -> rng) in
    for l = 0 to n_links - 1 do
      est_rngs.(l) <- Rng.split rng
    done;
    Array.init n_links (fun l ->
        {
          queue = Fifo.create ();
          on_air = no_frame;
          air_collided = false;
          air_faulted = false;
          had_traffic = false;
          estimator = Estimator.create est_rngs.(l) ~initial_capacity:(cap l);
        })
  in
  let last_service = Array.make (max 1 n_links) (-1.0) in
  let window_bits = Array.make (max 1 n_links) 0.0 in
  (* Backoff jitter lives on its own stream, split off only under
     [Heal] — a run under the other policies consumes exactly the
     historical draw sequence (and never draws jitter: no flow heals). *)
  let heal = config.dead_route = Heal in
  let jitter = if heal then Rng.split rng else rng in
  let[@inline] d_est l =
    let e = Estimator.estimate links.(l).estimator in
    if e <= 0.01 then 100.0 else 1.0 /. e
  in
  let gamma = Array.make n_links 0.0 in
  (* Only links on some flow's route ever carry data-plane traffic;
     only links interfering with those can accumulate airtime and
     gamma. Restricting the control-plane loops to these sets keeps
     the 100 ms tick cost independent of the network size. *)
  let is_carrier = Array.make n_links false in
  List.iter
    (fun (spec : flow_spec) ->
      List.iter
        (fun p -> List.iter (fun l -> is_carrier.(l) <- true) p.Paths.links)
        spec.routes)
    flows;
  let links_where mem =
    Array.of_list (List.filter (fun l -> mem.(l)) (List.init n_links Fun.id))
  in
  let carrier_links = links_where is_carrier in
  let is_priced = Array.make n_links false in
  Array.iter
    (fun l -> Array.iter (fun i -> is_priced.(i) <- true) (Domain.domain dom l))
    carrier_links;
  let priced_links = links_where is_priced in
  (* Scratch cells for float accumulation on the per-frame paths. A
     float accumulator threaded through a local recursive function is
     boxed on every iteration (the generic calling convention applies
     to local functions too); accumulating into a flat float array
     keeps the loop allocation-free. Slot 0: domain sums; slot 1: the
     route-pick walk. *)
  let facc = [| 0.0; 0.0 |] in
  (* Operand cell for a float handed to another module's per-frame
     entry point (the delay histogram, the ACK collector's q_r): a
     float argument of such a call is boxed. *)
  let arg_cell = [| 0.0 |] in
  (* Congestion price of link l: d_l * sum of gamma over I_l. Runs on
     every enqueue and for every priced link at each tick, so the sum
     over I_l is cached per twin class (links with the same I_l share
     one sum: 4 classes for the testbed's 616 links) and walked again
     only after γ changed. γ is written at four points — the tick's
     dual update, and through [reset_price] the route-death reset, the
     route-restore reset and link revival — and each bumps
     [gamma_epoch]; a cached sum is valid while its class's stamp in
     [gsum_at] equals the epoch. The walk is the same left-to-right
     fold over the same I_l array, so the cached value is bit-identical
     to a fresh one. *)
  let n_twins = Domain.n_twins dom in
  let gsum = Array.make (max 1 n_twins) 0.0 in
  let gsum_at = Array.make (max 1 n_twins) (-1) in
  let gamma_epoch = ref 0 in
  let[@inline] link_price l =
    let k = Domain.twin dom l in
    if gsum_at.(k) <> !gamma_epoch then begin
      let d = Domain.domain dom l in
      gsum.(k) <- 0.0;
      for i = 0 to Array.length d - 1 do
        gsum.(k) <- gsum.(k) +. gamma.(d.(i))
      done;
      gsum_at.(k) <- !gamma_epoch
    end;
    d_est l *. gsum.(k)
  in
  (* The self-healing paths' stale-price reset of one link's dual. *)
  let reset_price l =
    if gamma.(l) > 0.0 then begin
      gamma.(l) <- 0.0;
      incr gamma_epoch;
      if obs_on then Obs.Flight.price_reset fl ~link:l
    end
  in

  (* Per-node egress map: interface hash -> outgoing link id toward
     that hash's owner. Used by the source-route forwarding. *)
  let egress_by_hash = Array.make (Multigraph.n_nodes g) [] in
  Array.iter
    (fun (lk : Multigraph.link) ->
      let h = Route_codec.iface_hash ~node:lk.Multigraph.dst ~tech:lk.Multigraph.tech in
      egress_by_hash.(lk.Multigraph.src) <-
        (h, lk.Multigraph.id) :: egress_by_hash.(lk.Multigraph.src))
    (Multigraph.links g);
  let my_ifaces =
    Array.init (Multigraph.n_nodes g) (fun v ->
        List.init (Multigraph.n_techs g) (fun k -> Route_codec.iface_hash ~node:v ~tech:k))
  in

  (* --- finite shared buffers (config.buffers) --- *)
  (* Byte-pool arbitration of a node's egress (MAC) queues. Admission
     and marking are pure functions of occupancy — no randomness — so
     the rng stream is identical with the feature on or off, and with
     [buffers = None] none of this state is touched (the legacy
     per-queue frame limit applies unchanged). Occupancy moves at
     exactly two places: charged on admission in [enqueue_on_link],
     released when the frame leaves its queue (MAC grant pop in
     [try_start], or the backlog flush when a link dies). *)
  let buf_on = config.buffers <> None in
  let link_src = Array.make (max 1 n_links) 0 in
  let node_ports = Array.make (Multigraph.n_nodes g) 0 in
  if buf_on then
    Array.iter
      (fun (lk : Multigraph.link) ->
        link_src.(lk.Multigraph.id) <- lk.Multigraph.src;
        node_ports.(lk.Multigraph.src) <- node_ports.(lk.Multigraph.src) + 1)
      (Multigraph.links g);
  let port_occ = Array.make (max 1 n_links) 0 in
  let node_occ = Array.make (if buf_on then Multigraph.n_nodes g else 1) 0 in
  let ecn_marks = ref 0 in
  let buffer_peak = ref 0 in
  let buf_admit b l bytes =
    let node = link_src.(l) in
    node_occ.(node) + bytes <= b.pool_bytes
    &&
    match b.policy with
    | Static ->
      (* Equal static partition of the pool across the node's ports. *)
      port_occ.(l) + bytes <= b.pool_bytes / max 1 node_ports.(node)
    | Dynamic_threshold alpha ->
      (* Choudhury–Hahne DT: a port may hold up to alpha times the
         node's remaining free pool, so thresholds shrink as the pool
         fills and idle ports cede space to busy ones. *)
      float_of_int (port_occ.(l) + bytes)
      <= alpha *. float_of_int (b.pool_bytes - node_occ.(node))
  in
  let buf_charge l bytes =
    let node = link_src.(l) in
    port_occ.(l) <- port_occ.(l) + bytes;
    node_occ.(node) <- node_occ.(node) + bytes;
    if node_occ.(node) > !buffer_peak then buffer_peak := node_occ.(node)
  in
  let buf_release l bytes =
    port_occ.(l) <- port_occ.(l) - bytes;
    let node = link_src.(l) in
    node_occ.(node) <- node_occ.(node) - bytes
  in

  (* --- flows --- *)
  let reverse_latency_of spec =
    match Dijkstra.shortest_path g ~src:spec.dst ~dst:spec.src with
    | None -> 0.005
    | Some (p, _) ->
      List.fold_left
        (fun acc l ->
          acc +. Units.tx_time ~capacity_mbps:(Multigraph.capacity g l) ~bytes:120
          +. 0.001)
        0.0 p.Paths.links
  in
  let make_flow id (spec : flow_spec) =
    if spec.start_time < 0.0 then invalid_arg "Engine.run: negative start_time";
    if List.length spec.routes <> List.length spec.init_rates then
      invalid_arg "Engine.run: routes/init_rates length mismatch";
    let routes = Array.of_list spec.routes in
    Array.iter
      (fun p ->
        if Paths.hops p > Route_codec.max_hops then
          invalid_arg "Engine.run: route exceeds 6 hops";
        if Paths.src g p <> spec.src || Paths.dst g p <> spec.dst then
          invalid_arg "Engine.run: route endpoints mismatch")
      routes;
    let n_routes = max 1 (Array.length routes) in
    let longest =
      Array.fold_left (fun acc p -> max acc (Paths.hops p)) 1 routes
    in
    let files =
      match spec.workload with
      | Workload.Saturated -> [||]
      | Workload.File { bytes } ->
        [| { arrival = 0.0; fbytes = bytes; started_at = -1.0; done_at = -1.0 } |]
      | Workload.Poisson_files _ as w ->
        let times = Workload.arrival_times (Rng.split rng) w in
        let bytes =
          match w with Workload.Poisson_files { bytes; _ } -> bytes | _ -> 0
        in
        Array.of_list
          (List.map
             (fun t -> { arrival = t; fbytes = bytes; started_at = -1.0; done_at = -1.0 })
             times)
      | Workload.Empirical { files; _ } ->
        (* A pre-sampled schedule (Loadgen): no rng split consumed, so
           Empirical flows leave every other flow's stream untouched. *)
        let prev = ref 0.0 in
        Array.of_list
          (List.map
             (fun (t, b) ->
               if not (Float.is_finite t) || t < 0.0 || t < !prev then
                 invalid_arg
                   "Engine.run: Empirical arrivals must be nonnegative and \
                    nondecreasing";
               if b <= 0 then
                 invalid_arg "Engine.run: Empirical transfer bytes must be positive";
               prev := t;
               { arrival = t; fbytes = b; started_at = -1.0; done_at = -1.0 })
             files)
    in
    {
      id;
      spec;
      routes;
      route_links = Array.map (fun p -> Array.of_list p.Paths.links) routes;
      route_codes = Array.map (Route_codec.route_of_path g) routes;
      x = Array.of_list spec.init_rates;
      x_bar = Array.of_list spec.init_rates;
      alpha =
        Alpha.create
          ~single_path:(Array.length routes <= 1)
          ~longest_route_hops:longest;
      next_seq = 0;
      active = false;
      inject_scheduled = false;
      files;
      reorder =
        Reorder.create
          ~declare_losses:(spec.transport = Udp)
          ~n_routes ();
      collector = Ack.collector ~flow:id ~n_routes;
      equalizer = Reorder.Equalizer.create ~n_routes;
      received_bytes = 0;
      delivered_in_order_bytes = 0;
      lost = 0;
      injected_window = Array.make n_routes 0.0;
      dead_acks = Array.make n_routes 0;
      healing =
        (* The reclaim probes [Heal] injects would corrupt TCP's
           reordering and ack machinery, so TCP flows keep the
           probe-floor path. *)
        (if heal && spec.transport = Udp && Array.length routes > 0 then
           Some
             (Recovery.Detector.create ~n_routes:(Array.length routes)
                ~now:spec.start_time)
         else None);
      reclaim_attempt = Array.make n_routes 0;
      reclaim_gen = Array.make n_routes 0;
      init_x = Array.of_list spec.init_rates;
      tcp =
        (match spec.transport with
        | Udp -> None
        | Tcp_transport ->
          let base =
            match spec.tcp_params with Some p -> p | None -> Tcp.default_params
          in
          let params = { base with Tcp.segment_bytes = config.frame_bytes } in
          Some
            (Tcp.create ~params ~clock:now
               ~total_bytes:(Workload.total_bytes spec.workload) ()));
      goodput_rev = [];
      rates_rev = [];
      delay_hist = Obs.Metrics.Histogram.create ();
      reverse_latency = reverse_latency_of spec;
    }
  in
  let flow_states =
    (* Explicit left-to-right construction: [make_flow] consumes rng
       splits (Poisson arrival draws), so evaluation order is part of
       the seeding contract and List.mapi does not guarantee one. *)
    let rev, _ =
      List.fold_left
        (fun (acc, i) spec -> (make_flow i spec :: acc, i + 1))
        ([], 0) flows
    in
    Array.of_list (List.rev rev)
  in

  (* --- pre-resolved forwarding plans --- *)
  (* The per-hop forwarding decision (destination test, next-hop hash
     lookup, egress resolution) is a pure function of the static route
     code and the arrival node, so it is resolved once per (flow,
     route) here instead of per frame in [handle_tx_end].
     [plans.(flow).(route).(hop)] is the action after the packet's
     hop-th transmission: the next link id, [plan_deliver], or
     [plan_misroute]. The chain follows the codec walk itself — under
     an interface-hash collision it can diverge from [route_links],
     and the plan must reproduce exactly where the frame really
     goes. *)
  let plan_deliver = -1 and plan_misroute = -2 in
  let resolve_plan first_link code =
    let steps = ref [] in
    let rec go l n =
      (* A codec walk revisiting a node repeats its decision forever;
         bounding the chain by the node count turns that hang into an
         error at bootstrap. *)
      if n > Multigraph.n_nodes g then
        invalid_arg "Engine.run: source route does not terminate";
      let arrived = (Multigraph.link g l).Multigraph.dst in
      if Route_codec.is_destination code ~my_ifaces:my_ifaces.(arrived) then
        steps := plan_deliver :: !steps
      else
        match Route_codec.next_hop code ~my_ifaces:my_ifaces.(arrived) with
        | None -> steps := plan_misroute :: !steps
        | Some next_hash -> (
          match List.assoc_opt next_hash egress_by_hash.(arrived) with
          | None -> steps := plan_misroute :: !steps
          | Some next_link ->
            steps := next_link :: !steps;
            go next_link (n + 1))
    in
    go first_link 0;
    Array.of_list (List.rev !steps)
  in
  let plans =
    Array.map
      (fun f ->
        Array.mapi
          (fun ri code -> resolve_plan f.route_links.(ri).(0) code)
          f.route_codes)
      flow_states
  in

  (* --- invariant checker wiring --- *)
  (match inv with
  | None -> ()
  | Some t ->
    let inv_queue_limit =
      (* With a shared byte pool the per-queue frame bound is pool
         capacity in frames, not the (bypassed) legacy limit. *)
      match config.buffers with
      | None -> queue_limit
      | Some b ->
        max queue_limit ((b.pool_bytes / max 1 config.frame_bytes) + 1)
    in
    Invariants.configure t ~queue_limit:inv_queue_limit
      ~frame_bytes:config.frame_bytes ~control_period:config.control_period;
    Array.iter
      (fun f ->
        let pacing =
          match (f.spec.transport, f.spec.workload) with
          | Udp, Workload.Empirical { pacing = Workload.Poisson_paced; _ } ->
            (* Poisson frame gaps fluctuate around the CBR budget; the
               token-bucket class grants the burst slack that keeps the
               checker's paced-injection bound sound (overflow odds at
               the extra 8-frame + quarter-second depth are ~1e-9). *)
            Invariants.Token_bucket
          | Udp, _ -> Invariants.Paced
          | Tcp_transport, _ ->
            if config.enable_cc then Invariants.Token_bucket
            else Invariants.Unpoliced
        in
        Invariants.register_flow t ~flow:f.id ~pacing
          ~rate:(Array.fold_left ( +. ) 0.0 f.x))
      flow_states);
  let inv_view =
    lazy
      {
        Invariants.n_links;
        queue_len = (fun l -> Fifo.length links.(l).queue);
        on_air_flow =
          (fun l ->
            let p = links.(l).on_air in
            if p == no_frame then None else Some p.flow);
        iter_queued =
          (fun l k -> Fifo.iter (fun (p : packet) -> k p.flow) links.(l).queue);
        domain = (fun l -> Domain.domain dom l);
        gamma = (fun l -> gamma.(l));
        link_src = (fun l -> (Multigraph.link g l).Multigraph.src);
        live_frames = (fun () -> Pool.live pool);
        held_frames = (fun () -> !held);
      }
  in
  let inv_inject f =
    match inv with Some t -> Invariants.on_inject t ~now:now.(0) ~flow:f | None -> ()
  in
  let inv_deliver f =
    match inv with Some t -> Invariants.on_deliver t ~now:now.(0) ~flow:f | None -> ()
  in
  let inv_collision l f =
    match inv with
    | Some t ->
      Invariants.on_drop t ~now:now.(0) ~flow:f ~link:(Some l) ~reason:`Collision
    | None -> ()
  in
  (* Split per event kind so the polymorphic-variant payload is only
     constructed when a checker is attached. A frame leaving the
     network undelivered on link [l] feeds the checker's ledger and the
     observation stream in one call, and goes back to the pool. *)
  let drop_frame l (p : packet) reason =
    (match inv with
    | Some t ->
      Invariants.on_drop t ~now:now.(0) ~flow:p.flow ~link:(Some l)
        ~reason:(`Drop reason)
    | None -> ());
    if obs_on then
      Obs.Flight.drop fl ~link:l ~flow:p.flow ~seq:p.seq ~reason;
    Pool.release pool p
  in
  let inv_release_deliver f seq =
    match inv with
    | Some t -> Invariants.on_release t ~now:now.(0) ~flow:f (`Deliver seq)
    | None -> ()
  in
  let inv_release_lost f seq =
    match inv with
    | Some t -> Invariants.on_release t ~now:now.(0) ~flow:f (`Lost seq)
    | None -> ()
  in

  (* --- goodput bins --- *)
  let[@inline] flush_bins_upto f t =
    while bin_start.(f.id) +. 1.0 <= t do
      f.goodput_rev <-
        (bin_start.(f.id) +. 1.0, mbps_of_bits bin_bits.(f.id) 1.0) :: f.goodput_rev;
      bin_bits.(f.id) <- 0.0;
      bin_start.(f.id) <- bin_start.(f.id) +. 1.0
    done
  in

  (* --- MAC --- *)
  (* Per-run views of the interference domains. The MAC only ever
     looks at links that can hold a frame: M, every route's first link
     plus every link of the forwarding plans (which follow the codec
     walk, so they can leave [route_links]). The tick's demand fold
     only needs the carriers. So every walk over I_l on the engine's
     hot paths is a walk over the view [dom_view.(l)] = I_l ∩ (M ∪
     carriers), in domain order — a few links instead of hundreds on
     the testbed. The members each side does not need change nothing:
     a carrier outside M never has a queue or a frame on the air, and
     demand off the carriers is exactly +0.0, which leaves a sum that
     is >= +0.0 bit-identical. A view depends on l only through I_l, so
     it is built once per twin class and shared by the class's members.
     Links that are neither priced nor in M get an empty view; nothing
     walks it. *)
  let in_view = Array.copy is_carrier in
  Array.iteri
    (fun fi f ->
      Array.iteri
        (fun ri links ->
          in_view.(links.(0)) <- true;
          Array.iter (fun a -> if a >= 0 then in_view.(a) <- true) plans.(fi).(ri))
        f.route_links)
    flow_states;
  let twin_view = Array.make n_twins None in
  let dom_view =
    Array.init n_links (fun l ->
        if is_priced.(l) || in_view.(l) then begin
          let k = Domain.twin dom l in
          match twin_view.(k) with
          | Some v -> v
          | None ->
            let v = Domain.restrict dom in_view l in
            twin_view.(k) <- Some v;
            v
        end
        else [||])
  in
  (* O(1) domain-idle test: [air_busy.(l)] counts how many links of
     I_l are on the air right now, maintained at the four on_air
     transitions by an O(|view|) walk. Sound because the relation is
     symmetric by construction (Domain.create) and every link on the
     air is in M: a grant on [g] bumps exactly the links of M ∪
     carriers whose domains contain [g], and [domain_free] is only
     asked about links of M (a link with a backlog). *)
  let air_busy = Array.make (max 1 n_links) 0 in
  let air_set l =
    let d = dom_view.(l) in
    for i = 0 to Array.length d - 1 do
      air_busy.(d.(i)) <- air_busy.(d.(i)) + 1
    done
  in
  let air_clear l =
    let d = dom_view.(l) in
    for i = 0 to Array.length d - 1 do
      air_busy.(d.(i)) <- air_busy.(d.(i)) - 1
    done
  in
  let domain_free l = air_busy.(l) = 0 in
  (* [ok_odds.(c)] = (1 - collision_prob)^c, the chance that none of
     [c] backlogged contenders picks the same slot: one [**] per
     contender count, not per grant. *)
  let ok_odds =
    Array.init
      (Array.fold_left (fun m d -> max m (Array.length d)) 0 dom_view + 1)
      (fun c -> (1.0 -. config.collision_prob) ** float_of_int c)
  in
  let rec try_start l =
    let st = links.(l) in
    if st.on_air == no_frame && (not (Fifo.is_empty st.queue)) && domain_free l then begin
      let pkt = Fifo.pop st.queue in
      if buf_on then buf_release l pkt.bytes;
      st.on_air <- pkt;
      air_set l;
      last_service.(l) <- now.(0);
      (* CSMA/CA contention: the more backlogged stations share the
         collision domain, the likelier two of them pick the same
         slot. A collided frame still occupies the medium (the waste
         the delta margin of (3) buys headroom against) but is lost.
         With the controller keeping airtime below 1 - delta, queues
         stay short and collisions stay rare; blasting without CC
         keeps every contender backlogged and pays the full price. *)
      (if config.collision_prob > 0.0 then begin
         (* Only links of M can be backlogged. *)
         let d = dom_view.(l) in
         let contenders = ref 0 in
         for i = 0 to Array.length d - 1 do
           let l' = d.(i) in
           if l' <> l && not (Fifo.is_empty links.(l').queue) then
             incr contenders
         done;
         st.air_collided <- uniform () > ok_odds.(!contenders)
       end
       else st.air_collided <- false);
      (* Injected frame loss (fault plans): drawn after the collision
         draw, and only while a loss window is active on this link, so
         fault-free runs consume no extra randomness. Like a
         collision, a lossy frame still burns its airtime. *)
      st.air_faulted <-
        (not st.air_collided) && loss.(l) > 0.0 && uniform () < loss.(l);
      let cap_l = cap l in
      if cap_l <= 0.0 then begin
        (* Link died under us: drop the frame. *)
        st.on_air <- no_frame;
        air_clear l;
        incr queue_drops;
        drop_frame l pkt Obs.Trace.Link_down;
        try_start l
      end
      else begin
        (* [Units.tx_time] inlined (same expression, so bit-identical):
           a cross-module call with a float argument boxes the
           argument and the result on every grant. *)
        let airtime = float_of_int pkt.bytes /. (cap_l *. 1e6 /. 8.0) in
        if obs_on then begin
          fl_cell.(0) <- airtime;
          Obs.Flight.grant fl ~link:l ~flow:pkt.flow ~seq:pkt.seq
            ~collided:st.air_collided
        end;
        schedule airtime (Arena.tx_end l)
      end
    end
  in
  (* Candidate scratch for [try_start_domain], sized to the largest
     view: the filter/sort used to allocate two lists and a
     comparator closure per Tx_end — the single biggest steady-state
     allocation site. [try_start] never re-enters [try_start_domain],
     so one buffer suffices. *)
  let tsd_scratch =
    Array.make
      (max 1 (Array.fold_left (fun m d -> max m (Array.length d)) 0 dom_view))
      0
  in
  let try_start_domain l =
    (* Serve backlogged links of the freed domain,
       least-recently-served first (CSMA fairness). Insertion sort on
       (last_service, id) — a total order, so the result is exactly
       what the old List.sort produced. The candidates come from the
       view of I_l: a Tx_end costs O(|view|) plus the sort of the
       backlogged ones, a handful of links even when I_l holds
       hundreds, where insertion sort is also the fastest choice. *)
    let d = dom_view.(l) in
    let n = Array.length d in
    let m = ref 0 in
    for i = 0 to n - 1 do
      let l' = d.(i) in
      if
        links.(l').on_air == no_frame
        && not (Fifo.is_empty links.(l').queue)
      then begin
        tsd_scratch.(!m) <- l';
        incr m
      end
    done;
    let m = !m in
    for i = 1 to m - 1 do
      let v = tsd_scratch.(i) in
      let j = ref (i - 1) in
      while
        !j >= 0
        &&
        let u = tsd_scratch.(!j) in
        let c = Float.compare last_service.(u) last_service.(v) in
        c > 0 || (c = 0 && u > v)
      do
        tsd_scratch.(!j + 1) <- tsd_scratch.(!j);
        decr j
      done;
      tsd_scratch.(!j + 1) <- v
    done;
    for i = 0 to m - 1 do
      try_start tsd_scratch.(i)
    done
  in
  let enqueue_on_link l (pkt : packet) =
    let st = links.(l) in
    window_bits.(l) <- window_bits.(l) +. (8.0 *. float_of_int pkt.bytes);
    st.had_traffic <- true;
    let admitted =
      match config.buffers with
      | None -> Fifo.length st.queue < queue_limit
      | Some b -> buf_admit b l pkt.bytes
    in
    if not admitted then begin
      incr queue_drops;
      drop_frame l pkt Obs.Trace.Queue_overflow
    end
    else begin
      (if buf_on then begin
         buf_charge l pkt.bytes;
         (* ECN: mark-on-enqueue once the port's occupancy (frame
            included) reaches the threshold; the CE bit is sticky
            across hops and echoed to the sender by the receiver. *)
         match config.buffers with
         | Some { ecn_threshold_bytes = Some th; _ }
           when port_occ.(l) >= th ->
           if not pkt.ce then begin
             pkt.ce <- true;
             incr ecn_marks;
             if obs_on then
               Obs.Flight.ecn_mark fl ~link:l ~flow:pkt.flow ~seq:pkt.seq
                 ~occ:port_occ.(l)
           end
         | _ -> ()
       end);
      (* Stamp the congestion price for this hop into the running
         accumulator ([Header.add_price] semantics: saturate at the
         wire format's q_r ceiling). *)
      let qr = pool.Pool.qr in
      qr.(pkt.id) <- Float.min Header.qr_max (qr.(pkt.id) +. link_price l);
      Fifo.push st.queue pkt;
      if obs_on then
        Obs.Flight.enqueue fl ~link:l ~flow:pkt.flow ~seq:pkt.seq
          ~bytes:pkt.bytes ~qlen:(Fifo.length st.queue);
      try_start l
    end
  in

  (* --- source-side sending --- *)
  let[@inline] total_rate f =
    let x = f.x in
    facc.(0) <- 0.0;
    for i = 0 to Array.length x - 1 do
      facc.(0) <- facc.(0) +. x.(i)
    done;
    facc.(0)
  in
  (* Weighted route draw over the rate split, accumulating in a
     scratch cell (see [facc]) so the per-frame walk allocates
     nothing. *)
  let pick_route f =
    let tot = total_rate f in
    if tot <= 0.0 || Array.length f.routes = 0 then 0
    else begin
      let r = uniform () *. tot in
      let x = f.x in
      let n = Array.length x in
      facc.(1) <- 0.0;
      let i = ref 0 in
      let hit = ref (n - 1) in
      while !i < n do
        facc.(1) <- facc.(1) +. x.(!i);
        if r < facc.(1) then begin
          hit := !i;
          i := n
        end
        else incr i
      done;
      !hit
    end
  in
  (* [route] pins the frame to one route (recovery reclaim probes);
     without it the route is drawn from the rate split, consuming one
     rng draw — probes must not perturb that stream. *)
  let inject_frame ?route f ~bytes ~seq =
    let ri = match route with Some r -> r | None -> pick_route f in
    let pkt = Pool.take pool in
    pkt.flow <- f.id;
    pkt.route_idx <- ri;
    pkt.seq <- seq;
    pkt.bytes <- bytes;
    pkt.hop <- 0;
    pkt.ce <- false;
    pool.Pool.qr.(pkt.id) <- 0.0;
    pool.Pool.sent_at.(pkt.id) <- now.(0);
    f.injected_window.(ri) <- f.injected_window.(ri) +. float_of_int bytes;
    (match route with
    | Some _ -> (
      match inv with
      | Some t -> Invariants.on_probe t ~now:now.(0) ~flow:f.id
      | None -> ())
    | None -> inv_inject f.id);
    enqueue_on_link f.route_links.(ri).(0) pkt
  in
  let sendable_bytes f =
    match f.spec.workload with
    | Workload.Saturated -> max_int
    | Workload.File _ | Workload.Poisson_files _ ->
      (* Closed-loop serialization (the Workload.Poisson_files
         contract): a file's bytes only become sendable once it has
         arrived AND the previous file finished at the receiver, so
         an offered arrival landing mid-transfer waits instead of
         pre-queueing behind the one in flight. Completions form a
         prefix (progress is cumulative), so gating each file on its
         predecessor's [done_at] is exact. *)
      let acc = ref 0 in
      Array.iteri
        (fun i file ->
          if
            file.arrival <= now.(0)
            && (i = 0 || f.files.(i - 1).done_at >= 0.0)
          then acc := !acc + file.fbytes)
        f.files;
      !acc
    | Workload.Empirical _ ->
      (* Open-loop: every arrived transfer queues on the persistent
         connection immediately — completion times of backlogged
         transfers include their queueing wait. *)
      Array.fold_left
        (fun acc file -> if file.arrival <= now.(0) then acc + file.fbytes else acc)
        0 f.files
  in
  (* UDP pacing: one frame per Inject event, next scheduled from the
     controller's total rate — deterministic gaps (CBR, the historical
     behaviour) or, for Poisson-paced empirical workloads, exponential
     gaps with the same mean. The exponential draw comes from the
     run's master stream as events execute; CBR flows draw nothing, so
     legacy runs consume exactly the historical sequence. *)
  let poisson_paced f =
    match f.spec.workload with
    | Workload.Empirical { pacing = Workload.Poisson_paced; _ } -> true
    | _ -> false
  in
  let rec schedule_inject f =
    if f.active && not f.inject_scheduled then begin
      let rate = total_rate f in
      if rate < 0.05 then begin
        f.inject_scheduled <- true;
        schedule 0.2 (Arena.inject f.id)
      end
      else begin
        let dt = 8.0 *. float_of_int config.frame_bytes /. (rate *. 1e6) in
        let dt =
          if poisson_paced f then Rng.exponential rng ~rate:(1.0 /. dt) else dt
        in
        f.inject_scheduled <- true;
        schedule dt (Arena.inject f.id)
      end
    end
  and handle_inject f =
    f.inject_scheduled <- false;
    if f.active && Array.length f.routes > 0 then begin
      let rate = total_rate f in
      (* File workloads are reliable: the sender keeps transmitting
         (the application resends what was lost) until the receiver
         holds the full file, so MAC losses cost time, not data. *)
      if rate >= 0.05 && f.received_bytes < sendable_bytes f then begin
        inject_frame f ~bytes:config.frame_bytes ~seq:(f.next_seq land 0xFFFFFFFF);
        f.next_seq <- f.next_seq + 1
      end;
      schedule_inject f
    end
  in
  (* TCP sending: window-driven, policed by the controller's rate. *)
  let refill_tokens f =
    let rate = total_rate f in
    (* Bucket depth: a quarter-second of the allocation (at least 8
       frames) so ack-clocked TCP bursts are not punished when the
       average rate respects the allocation. *)
    let depth =
      Float.max
        (8.0 *. float_of_int config.frame_bytes)
        (rate *. 1e6 /. 8.0 *. 0.25)
    in
    tokens.(f.id) <-
      Float.min depth
        (tokens.(f.id) +. (rate *. 1e6 /. 8.0 *. (now.(0) -. tokens_at.(f.id))));
    tokens_at.(f.id) <- now.(0)
  in
  (* Retransmission timers. A Tcp_rto event carries the deadline it
     was armed for, and does nothing when it pops unless that is still
     the flow's deadline (the 1e-9 test in its dispatch arm).
     [arm_rto] runs after every send and every ack, mostly with the
     deadline unchanged, so it skips the push when the flow's newest
     queued Tcp_rto already carries the current deadline:
     [rto_armed.(f)] is that event's deadline (nan once it has popped)
     and [rto_slot.(f)] its slot. Skipping is exact. The skipped event
     would carry the same deadline dl as the queued one, at a time no
     earlier and with a later FIFO sequence number, so the queued one
     pops first, at a time >= dl. If the flow's deadline is then still
     within 1e-9 of dl, the timeout fires and moves it; otherwise it
     had already moved away. Every deadline set from then on is
     now + rto with now >= dl and rto (at least a smoothed round trip)
     far above 1e-9, so the skipped event could only have popped
     stale. Only the event count changes. *)
  let rto_armed = Array.make (max 1 n_flows) Float.nan in
  let rto_slot = Array.make (max 1 n_flows) (-1) in
  let arm_rto f =
    match f.tcp with
    | None -> ()
    | Some tcp ->
      let dl = (Tcp.rto_deadline_cell tcp).(0) in
      if (not (Float.is_nan dl)) && dl <> rto_armed.(f.id) then begin
        f_cell.(0) <- dl;
        let slot = Arena.Fslots.put f_slots in
        rto_armed.(f.id) <- dl;
        rto_slot.(f.id) <- slot;
        schedule_abs (Float.max dl now.(0)) (Arena.tcp_rto ~flow:f.id ~slot)
      end
  in
  (* The controller gates TCP by backpressure: when the flow's token
     bucket is empty the source holds the next segment and resumes
     when tokens accrue (the tun/tap queue filling up and blocking the
     stack). Packets are only lost to MAC contention (queue overflow,
     delta-dependent) and to reordering - the Section 6.4 effects. *)
  let rec tcp_try_send f =
    (match f.tcp with
    | None -> ()
    | Some tcp ->
      if f.active && Array.length f.routes > 0 && not (Tcp.finished tcp) then begin
        let tokens_ok =
          if not config.enable_cc then true
          else begin
            refill_tokens f;
            tokens.(f.id) >= float_of_int config.frame_bytes
          end
        in
        if not tokens_ok then begin
          if not f.inject_scheduled then begin
            let rate = total_rate f in
            let wait =
              if rate < 0.05 then 0.2
              else
                (float_of_int config.frame_bytes -. tokens.(f.id))
                *. 8.0 /. (rate *. 1e6)
            in
            f.inject_scheduled <- true;
            schedule (Float.max wait 1e-4) (Arena.inject f.id)
          end
        end
        else begin
          let new_data_limit =
            match Workload.total_bytes f.spec.workload with
            | None -> None
            | Some _ ->
              (* ceil: the final partial segment is sendable *)
              Some
                ((sendable_bytes f + config.frame_bytes - 1) / config.frame_bytes)
          in
          let seq = Tcp.take_segment ?new_data_limit tcp in
          if seq >= 0 then begin
            if config.enable_cc then
              tokens.(f.id) <- tokens.(f.id) -. float_of_int config.frame_bytes;
            inject_frame f ~bytes:config.frame_bytes ~seq;
            tcp_try_send f
          end
        end
      end);
    (* Heartbeat for bounded workloads: sending can be gated on future
       file arrivals (Poisson workloads) with nothing in flight to
       produce an ACK or RTO, so poll again shortly. *)
    (match f.tcp with
    | Some tcp
      when f.active
           && (not (Tcp.finished tcp))
           && Workload.total_bytes f.spec.workload <> None
           && not f.inject_scheduled ->
      f.inject_scheduled <- true;
      schedule 0.2 (Arena.inject f.id)
    | Some _ | None -> ());
    arm_rto f
  in

  (* --- receiver --- *)
  (* Files start and complete in index order (a start needs the
     predecessor done; a completion needs cumulative progress past
     every earlier boundary), so [completions_check] resumes from the
     first file that is not yet fully stamped instead of rescanning
     the whole schedule on every delivered frame. [files_head] is that
     resume index per flow; [files_cum] the byte boundary before it. *)
  let files_head = Array.make (max 1 n_flows) 0 in
  let files_cum = Array.make (max 1 n_flows) 0 in
  let completions_check f =
    (* A file completes when the receiver's cumulative progress passes
       its boundary; it starts when the previous finished (or at its
       arrival). Under TCP, progress means in-order delivered bytes
       (retransmitted duplicates must not count); UDP frames are never
       duplicated, so raw arrivals are the right measure there. *)
    let nf = Array.length f.files in
    if files_head.(f.id) < nf then begin
      let progress =
        match f.tcp with
        | Some _ -> f.delivered_in_order_bytes
        | None -> f.received_bytes
      in
      let i = ref files_head.(f.id) in
      let cum = ref files_cum.(f.id) in
      let scan = ref true in
      while !scan && !i < nf do
        let file = f.files.(!i) in
        let prev_done = if !i = 0 then 0.0 else f.files.(!i - 1).done_at in
        if
          file.started_at < 0.0
          && file.arrival <= now.(0)
          && (!i = 0 || prev_done >= 0.0)
        then file.started_at <- Float.max file.arrival prev_done;
        cum := !cum + file.fbytes;
        if file.done_at < 0.0 && progress >= !cum then file.done_at <- now.(0);
        if file.done_at >= 0.0 then begin
          if file.started_at >= 0.0 && !i = files_head.(f.id) then begin
            files_head.(f.id) <- !i + 1;
            files_cum.(f.id) <- !cum
          end;
          incr i
        end
        else
          (* Nothing past an unfinished file can change state: a later
             start needs this one done, a later boundary is farther
             than the one progress just missed. *)
          scan := false
      done
    end
  in
  (* Reorder-release callbacks, one closure pair per flow built once:
     [Reorder.push_cb] fires these for every in-order release and
     declared loss without allocating an event list. *)
  let deliver_cbs =
    Array.map
      (fun f ->
        fun seq bytes ->
          inv_release_deliver f.id seq;
          f.delivered_in_order_bytes <- f.delivered_in_order_bytes + bytes)
      flow_states
  in
  let lost_cbs =
    Array.map
      (fun f ->
        fun seq ->
          inv_release_lost f.id seq;
          f.lost <- f.lost + 1)
      flow_states
  in
  (* A delivered frame's last stop: its q_r and the bytes the reorder
     buffer keeps are read out, and the record goes back to the pool. *)
  let release_packet f (pkt : packet) =
    (* Every frame's one-way delay (queueing + transmission along the
       route) lands in a streaming histogram: exact count/mean,
       quantiles within 0.5% relative error, bounded memory. *)
    let delay = now.(0) -. pool.Pool.sent_at.(pkt.id) in
    arg_cell.(0) <- delay;
    Obs.Metrics.Histogram.observe_cell f.delay_hist arg_cell;
    if obs_on then begin
      fl_cell.(0) <- delay;
      Obs.Flight.delivery fl ~flow:f.id ~seq:pkt.seq ~bytes:pkt.bytes
    end;
    arg_cell.(0) <- pool.Pool.qr.(pkt.id);
    Ack.on_packet ~ce:pkt.ce f.collector ~route:pkt.route_idx ~qr:arg_cell
      ~seq:pkt.seq ~bytes:pkt.bytes;
    flush_bins_upto f now.(0);
    f.received_bytes <- f.received_bytes + pkt.bytes;
    bin_bits.(f.id) <- bin_bits.(f.id) +. (8.0 *. float_of_int pkt.bytes);
    Reorder.push_cb f.reorder ~route:pkt.route_idx ~seq:pkt.seq pkt.bytes
      ~deliver:deliver_cbs.(f.id) ~lost:lost_cbs.(f.id);
    (match f.tcp with
    | None -> ()
    | Some _ ->
      (* Cumulative TCP ACK on every arrival (dup-acks included); the
         ack echoes the arriving frame's CE bit (DCTCP-style immediate
         per-frame echo). *)
      let cum = Reorder.next_expected f.reorder in
      schedule f.reverse_latency (Arena.tcp_ack ~flow:f.id ~cum ~ece:pkt.ce));
    completions_check f;
    Pool.release pool pkt
  in
  let deliver_to_destination f (pkt : packet) =
    inv_deliver f.id;
    if config.delay_equalize then begin
      let delay = now.(0) -. pool.Pool.sent_at.(pkt.id) in
      Reorder.Equalizer.observe f.equalizer ~route:pkt.route_idx ~delay;
      let hold = Reorder.Equalizer.release_delay f.equalizer ~route:pkt.route_idx in
      if hold > 1e-6 then begin
        incr held;
        schedule hold
          (Arena.reorder_release ~flow:f.id ~slot:(Arena.Slots.put pkt_slots pkt))
      end
      else release_packet f pkt
    end
    else release_packet f pkt
  in

  (* --- forwarding --- *)
  let handle_tx_end l =
    let st = links.(l) in
    let pkt = st.on_air in
    if pkt == no_frame then ()
    else if st.air_collided then begin
      (* Collided: airtime spent, frame lost. *)
      st.on_air <- no_frame;
      air_clear l;
      st.air_collided <- false;
      inv_collision l pkt.flow;
      if obs_on then
        Obs.Flight.collision fl ~link:l ~flow:pkt.flow ~seq:pkt.seq;
      Pool.release pool pkt;
      try_start_domain l
    end
    else if st.air_faulted then begin
      (* Fault-injected loss: airtime spent, frame lost. Not a queue
         drop — the frame made it onto the medium. *)
      st.on_air <- no_frame;
      air_clear l;
      st.air_faulted <- false;
      drop_frame l pkt Obs.Trace.Fault_injected;
      try_start_domain l
    end
    else begin
      st.on_air <- no_frame;
      air_clear l;
      if obs_on then
        Obs.Flight.dequeue fl ~link:l ~flow:pkt.flow ~seq:pkt.seq;
      (* The layer-2.5 source-route decision, pre-resolved at
         bootstrap into the plan array. *)
      let act = plans.(pkt.flow).(pkt.route_idx).(pkt.hop) in
      if act = plan_deliver then deliver_to_destination flow_states.(pkt.flow) pkt
      else if act = plan_misroute then drop_frame l pkt Obs.Trace.Misroute
      else begin
        pkt.hop <- pkt.hop + 1;
        enqueue_on_link act pkt
      end;
      try_start_domain l
    end
  in

  (* --- controller --- *)
  let probe_rate = 0.2 in
  (* The halving path's floor: [Probe_floor] (and [Heal]'s TCP flows)
     keep a dead route carrying the occasional frame so it is
     reclaimed once it heals; [Abandon] starves a recovered route
     forever because its q_r never refreshes. *)
  let dead_floor =
    match config.dead_route with Abandon -> 0.0 | Probe_floor | Heal -> probe_rate
  in
  (* Self-healing ([Heal], UDP flows): a route the detector
     declares dead has its rate state expired on the spot — the §4
     duals of its unusable links are reset instead of draining, its
     mass is redistributed onto the routes that survive the LSDB
     re-discovery, and reclaim probes are armed on the backoff
     schedule. A later ack on the route restores its initial rate. *)
  let on_route_dead f i ~since det =
    let detect_s = now.(0) -. since in
    if obs_on then
      Obs.Flight.route_dead fl ~flow:f.id ~route:i ~detect_s;
    let dead_mass = f.x.(i) in
    f.x.(i) <- 0.0;
    f.x_bar.(i) <- 0.0;
    Array.iter (fun l -> if caps.(l) <= 0.0 then reset_price l) f.route_links.(i);
    let surv =
      Recovery.survivors g ~caps ~src:f.spec.src ~routes:(Array.to_list f.routes)
    in
    let live = ref [] and live_sum = ref 0.0 in
    Array.iteri
      (fun j _ ->
        if j <> i && surv.(j) && not (Recovery.Detector.dead det j) then begin
          live := j :: !live;
          live_sum := !live_sum +. f.x.(j)
        end)
      f.routes;
    (match !live with
    | [] -> () (* full severance: reclaim probes must bring a route back *)
    | ls ->
      let k = float_of_int (List.length ls) in
      List.iter
        (fun j ->
          let share =
            if !live_sum > 0.0 then dead_mass *. (f.x.(j) /. !live_sum)
            else dead_mass /. k
          in
          f.x.(j) <- f.x.(j) +. share;
          f.x_bar.(j) <- f.x_bar.(j) +. share)
        ls);
    f.reclaim_attempt.(i) <- 0;
    f.reclaim_gen.(i) <- f.reclaim_gen.(i) + 1;
    schedule
      (Recovery.Backoff.delay jitter ~attempt:0)
      (Arena.reclaim_probe ~flow:f.id ~route:i ~gen:f.reclaim_gen.(i))
  in
  let on_route_restored f i ~down_for =
    if obs_on then
      Obs.Flight.route_restored fl ~flow:f.id ~route:i ~down_s:down_for;
    (* The γ accumulated around the route while it was down is stale:
       idle estimators under-report capacity, so the reclaim probes
       themselves register as huge airtime demand and spike the duals
       of perfectly healthy links. The route's price is
       d_l Σ_{i∈I_l} γ_i — a sum over each link's {e interference
       domain} — so the stale mass must be cleared domain-wide, or the
       restored route keeps paying a phantom congestion price that
       post-restore traffic sustains indefinitely. Pricing restarts
       from live measurements (it re-learns within a few 100 ms
       ticks if the congestion is real). *)
    Array.iter (fun l -> Array.iter reset_price (Domain.domain dom l)) f.route_links.(i);
    let restore = Float.max probe_rate f.init_x.(i) in
    f.x.(i) <- restore;
    f.x_bar.(i) <- restore;
    f.reclaim_attempt.(i) <- 0
  in
  (* The §4.3 proximal rate update of route [i] from the q_r its ACK
     reported. It floors at the probe rate: a route priced out of use
     must still carry occasional packets, or its q_r would never
     refresh and the route could never be reclaimed when conditions
     improve (e.g. the Figure 9 contender leaving). *)
  let proximal_update f i ~a ~u' ~qr =
    let inner = Float.max 0.0 (f.x_bar.(i) +. (cc_gain *. (u' -. qr))) in
    f.x.(i) <- Float.max probe_rate (((1.0 -. a) *. f.x.(i)) +. (a *. inner))
  in
  let cc_update f (ack : Ack.t) =
    if config.enable_cc && Array.length f.routes > 0 then begin
      let a = Alpha.current f.alpha in
      let u' = Utility.proportional_fair.Utility.u' (total_rate f) in
      List.iter
        (fun (r : Ack.route_report) ->
          let i = r.Ack.route in
          match f.healing with
          | Some det -> (
            let injected = f.injected_window.(i) in
            f.injected_window.(i) <- 0.0;
            match
              Recovery.Detector.observe det ~route:i ~now:now.(0) ~injected
                ~acked:(float_of_int r.Ack.bytes)
                ~frame_bytes:(float_of_int config.frame_bytes)
            with
            | Recovery.Detector.Down { since } ->
              on_route_dead f i ~since det
            | Recovery.Detector.Recovered { down_for } ->
              on_route_restored f i ~down_for
            | Recovery.Detector.Still_down -> () (* rate held at zero *)
            | Recovery.Detector.Alive | Recovery.Detector.Suspect _ ->
              proximal_update f i ~a ~u' ~qr:r.Ack.qr)
          | None ->
            (* Failure detection (Section 6.1: link failures are caught
               within hundreds of ms): a route we keep feeding that
               returns no bytes for several ACK periods is treated as
               broken and backed off multiplicatively; the stale q_r it
               last reported would otherwise keep it attractive. *)
            if
              Recovery.missed ~injected:f.injected_window.(i)
                ~acked:(float_of_int r.Ack.bytes)
                ~frame_bytes:(float_of_int config.frame_bytes)
            then f.dead_acks.(i) <- f.dead_acks.(i) + 1
            else if r.Ack.bytes > 0 then f.dead_acks.(i) <- 0;
            f.injected_window.(i) <- 0.0;
            if f.dead_acks.(i) >= Recovery.dead_ack_threshold then begin
              f.x.(i) <- Float.max dead_floor (f.x.(i) *. 0.5);
              f.x_bar.(i) <- Float.max dead_floor (f.x_bar.(i) *. 0.5)
            end
            else proximal_update f i ~a ~u' ~qr:r.Ack.qr)
        ack.Ack.reports;
      for i = 0 to Array.length f.x - 1 do
        f.x_bar.(i) <- ((1.0 -. a) *. f.x_bar.(i)) +. (a *. f.x.(i))
      done;
      Alpha.observe f.alpha (total_rate f);
      if obs_on then
        Obs.Flight.event fl
          (Obs.Trace.Rate_update
             { t = now.(0); flow = f.id; rates = Array.copy f.x });
      (match inv with
      | Some t -> Invariants.on_rate t ~flow:f.id ~rate:(total_rate f)
      | None -> ());
      (* refresh TCP policing promptly *)
      match f.tcp with Some _ -> tcp_try_send f | None -> ()
    end
  in
  (* Demand scratch for the control tick: only carrier entries are
     ever written, and each tick overwrites them before the domain
     sums read them; non-carrier entries stay 0.0 forever, exactly as
     the per-tick fresh array had them. *)
  let demand = Array.make (max 1 n_links) 0.0 in
  (* The tick's price rows, d_l Σ_{i∈I_l} γ_i by link, handed to the
     ring in one call beside [gamma]. *)
  let tick_price = Array.make (if obs_on then n_links else 0) 0.0 in
  let handle_control_tick () =
    (* 1. Demand measurement and dual update (carrier/priced sets
       only; everything else has zero demand and zero gamma). Each
       price's demand sum walks the view of I_l, which holds every
       carrier of I_l. *)
    Array.iter
      (fun l ->
        let bits = window_bits.(l) in
        window_bits.(l) <- 0.0;
        demand.(l) <- bits /. 1e6 *. d_est l /. config.control_period)
      carrier_links;
    Array.iter
      (fun l ->
        let y =
          let d = dom_view.(l) in
          facc.(0) <- 0.0;
          for i = 0 to Array.length d - 1 do
            facc.(0) <- facc.(0) +. demand.(d.(i))
          done;
          facc.(0)
        in
        let upd = gamma.(l) +. (gamma_alpha *. (y -. (1.0 -. config.delta))) in
        gamma.(l) <- Float.max 0.0 upd)
      priced_links;
    incr gamma_epoch;
    if obs_on then begin
      for k = 0 to Array.length priced_links - 1 do
        let l = priced_links.(k) in
        tick_price.(l) <- link_price l
      done;
      Obs.Flight.prices fl ~links:priced_links ~gamma ~price:tick_price
    end;
    (* 2. Capacity estimation (only carriers are ever priced or
       transmitted on, so only they need tracking). *)
    Array.iter
      (fun l ->
        let st = links.(l) in
        Estimator.set_mode st.estimator
          (if st.had_traffic then Estimator.Active_traffic else Estimator.Probing);
        st.had_traffic <- false;
        Estimator.observe st.estimator ~now:now.(0) ~true_capacity:(cap l))
      carrier_links;
    (* 3. Destination ACK emission + trace recording. *)
    Array.iter
      (fun f ->
        if f.active then begin
          let ack = Ack.emit f.collector ~now:now.(0) in
          if obs_on then
            Obs.Flight.event fl
              (Obs.Trace.Ack
                 {
                   t = now.(0);
                   flow = f.id;
                   qr =
                     Array.of_list
                       (List.map
                          (fun (r : Ack.route_report) -> r.Ack.qr)
                          ack.Ack.reports);
                   bytes =
                     Array.of_list
                       (List.map
                          (fun (r : Ack.route_report) -> r.Ack.bytes)
                          ack.Ack.reports);
                 });
          (* Control-plane faults: the report may be dropped (that
             window's q_r observations are simply gone, as on a real
             lossy reverse path) or delayed. The draw happens only
             while a drop window is active — see the determinism
             note at the fault-state declarations. *)
          let ack_lost = ctrl_drop.(0) > 0.0 && uniform () < ctrl_drop.(0) in
          if not ack_lost then
            schedule
              (f.reverse_latency +. ctrl_delay.(0))
              (Arena.ack_arrive ~flow:f.id ~slot:(Arena.Slots.put ack_slots ack));
          f.rates_rev <- (now.(0), Array.copy f.x) :: f.rates_rev
        end)
      flow_states;
    (match inv with
    | Some t -> Invariants.on_tick t ~now:now.(0) (Lazy.force inv_view)
    | None -> ());
    schedule config.control_period Arena.control_tick
  in

  (* --- event dispatch --- *)
  (* Tag dispatch on the int encoding (a jump table); each arm decodes
     its packed operands and releases any payload slot. The arm
     comments name the historical constructors. *)
  let handle code =
    match code land 0xF with
    | 0 (* Tx_end *) -> handle_tx_end (Arena.link code)
    | 10 (* Capacity_change *) ->
      let l = Arena.link20 code in
      let c =
        let slot = Arena.slot24 code in
        Arena.Fslots.load f_slots slot;
        Arena.Fslots.release f_slots slot;
        f_cell.(0)
      in
      let was_dead = caps.(l) <= 0.0 in
      caps.(l) <- Float.max 0.0 c;
      if obs_on then
        Obs.Flight.link_event fl ~link:l ~capacity:caps.(l);
      (* A dead link drops its backlog; a healthier one may start. *)
      if caps.(l) <= 0.0 then begin
        let st = links.(l) in
        (* The flushed backlog counts as queue drops — frames must not
           vanish from the accounting when a link dies. *)
        queue_drops := !queue_drops + Fifo.length st.queue;
        Fifo.iter
          (fun p ->
            if buf_on then buf_release l p.bytes;
            drop_frame l p Obs.Trace.Backlog_cleared)
          st.queue;
        Fifo.clear st.queue
      end
      else begin
        (* Self-healing: a link coming back from the dead restarts
           with a clean price. The stale γ is not confined to the link
           itself — any route through l is priced d_l Σ_{i∈I_l} γ_i
           over l's interference domain, and the overload measured
           during the outage (traffic aimed at a dead link against
           decayed idle estimators) spiked γ on the domain peers too.
           Reset the whole domain so prices re-learn from live
           measurements; this also covers outages too short for the
           failure detector to fire. Ramp steps on a live link keep
           their γ (was_dead is false). *)
        if heal && was_dead then begin
          Array.iter reset_price (Domain.domain dom l);
          (* The capacity estimate is just as stale as the price: it
             tracked toward zero while the link was dead (offered
             traffic keeps the fast Active_traffic time constant), so
             1/estimate would misprice the healed link for several
             control periods. Restart it from a fresh observation —
             the draw comes from the estimator's own per-link rng
             stream, so no other link's sequence shifts. *)
          Estimator.reset links.(l).estimator ~now:now.(0) ~capacity:caps.(l)
        end;
        try_start l
      end
    | 11 (* Loss_change *) ->
      let l = Arena.link20 code in
      let p =
        let slot = Arena.slot24 code in
        Arena.Fslots.load f_slots slot;
        Arena.Fslots.release f_slots slot;
        f_cell.(0)
      in
      loss.(l) <- p;
      if obs_on then Obs.Flight.loss_event fl ~link:l ~prob:p
    | 12 (* Ctrl_change *) ->
      let p, d =
        let slot = Arena.slot4 code in
        let pd = Arena.Slots.get pair_slots slot in
        Arena.Slots.release pair_slots slot;
        pd
      in
      ctrl_drop.(0) <- p;
      ctrl_delay.(0) <- d;
      if obs_on then Obs.Flight.ctrl_event fl ~drop:p ~delay:d
    | 1 (* Inject *) -> (
      let f = flow_states.(Arena.flow_wide code) in
      match f.spec.transport with
      | Udp -> handle_inject f
      | Tcp_transport ->
        f.inject_scheduled <- false;
        tcp_try_send f)
    | 2 (* Control_tick *) -> handle_control_tick ()
    | 9 (* Ack_arrive *) ->
      let slot = Arena.slot20 code in
      let ack = Arena.Slots.get ack_slots slot in
      Arena.Slots.release ack_slots slot;
      cc_update flow_states.(Arena.flow code) ack
    | 3 (* Tcp_ack_arrive *) -> (
      let f = flow_states.(Arena.flow code) in
      let cum = Arena.tcp_ack_cum code and ece = Arena.tcp_ack_ece code in
      match f.tcp with
      | None -> ()
      | Some tcp ->
        Tcp.on_ack ~ece tcp ~cum_ack:cum;
        tcp_try_send f;
        arm_rto f)
    | 4 (* Reorder_release *) ->
      let slot = Arena.slot20 code in
      let pkt = Arena.Slots.get pkt_slots slot in
      Arena.Slots.release pkt_slots slot;
      decr held;
      release_packet flow_states.(Arena.flow code) pkt
    | 5 (* Tcp_rto *) -> (
      let f = flow_states.(Arena.flow code) in
      let slot = Arena.slot20 code in
      Arena.Fslots.load f_slots slot;
      Arena.Fslots.release f_slots slot;
      if slot = rto_slot.(f.id) then rto_armed.(f.id) <- Float.nan;
      match f.tcp with
      | None -> ()
      | Some tcp ->
        (* The deadline and the time the timer was armed for, both read
           from cells: [f_cell] holds the slot's value. *)
        let dl = (Tcp.rto_deadline_cell tcp).(0) in
        (* A nan deadline (no timer) fails the test: a stale timer. *)
        if Float.abs (dl -. f_cell.(0)) < 1e-9 && dl <= now.(0) +. 1e-9 then begin
          Tcp.on_rto tcp;
          tcp_try_send f
        end)
    | 6 (* Flow_start *) ->
      let f = flow_states.(Arena.flow_wide code) in
      f.active <- true;
      (match f.spec.transport with
      | Udp -> schedule_inject f
      | Tcp_transport -> tcp_try_send f)
    | 7 (* Flow_stop *) -> flow_states.(Arena.flow_wide code).active <- false
    | 8 (* Reclaim_probe *) -> (
      let fid = Arena.flow code in
      let i = Arena.probe_route code and gen = Arena.probe_gen code in
      let f = flow_states.(fid) in
      match f.healing with
      | Some det
        when f.active && gen = f.reclaim_gen.(i)
             && Recovery.Detector.dead det i ->
        (* One frame down the dead route; its delivery (and the ack
           that reports it) is what flips the detector back to alive.
           The next probe backs off exponentially up to the cap. *)
        inject_frame ~route:i f ~bytes:config.frame_bytes
          ~seq:(f.next_seq land 0xFFFFFFFF);
        f.next_seq <- f.next_seq + 1;
        if obs_on then
          Obs.Flight.route_probe fl ~flow:fid ~route:i
            ~attempt:f.reclaim_attempt.(i);
        f.reclaim_attempt.(i) <- f.reclaim_attempt.(i) + 1;
        schedule
          (Recovery.Backoff.delay jitter ~attempt:f.reclaim_attempt.(i))
          (Arena.reclaim_probe ~flow:fid ~route:i ~gen)
      | _ -> ())
    | _ -> assert false (* no such tag is ever scheduled *)
  in
  (* Profiler attribution, indexed by event tag: the subsystem whose
     handler ran the event. Scheduler time (the wheel's pop path) is
     attributed separately by the profiled loop below. *)
  let prof_tab =
    let t = Array.make 16 Obs.Prof.cat_fault in
    t.(Arena.t_tx_end) <- Obs.Prof.cat_mac_phy;
    t.(Arena.t_reorder_release) <- Obs.Prof.cat_mac_phy;
    t.(Arena.t_inject) <- Obs.Prof.cat_traffic;
    t.(Arena.t_flow_start) <- Obs.Prof.cat_traffic;
    t.(Arena.t_flow_stop) <- Obs.Prof.cat_traffic;
    t.(Arena.t_control_tick) <- Obs.Prof.cat_controller;
    t.(Arena.t_ack_arrive) <- Obs.Prof.cat_controller;
    t.(Arena.t_tcp_ack) <- Obs.Prof.cat_tcp;
    t.(Arena.t_tcp_rto) <- Obs.Prof.cat_tcp;
    t.(Arena.t_reclaim_probe) <- Obs.Prof.cat_recovery;
    t
  in

  (* --- bootstrap --- *)
  (* No event is in flight yet ([pending_drop] is false), so these are
     plain pushes. *)
  Array.iter
    (fun f ->
      schedule_abs f.spec.start_time (Arena.flow_start f.id);
      match f.spec.stop_time with
      | Some t -> schedule_abs t (Arena.flow_stop f.id)
      | None -> ())
    flow_states;
  schedule_abs config.control_period Arena.control_tick;
  List.iter
    (fun (t, l, c) ->
      if t < 0.0 || l < 0 || l >= n_links || not (Float.is_finite c) then
        invalid_arg "Engine.run: bad link event";
      f_cell.(0) <- c;
      schedule_abs t (Arena.capacity_change ~link:l ~slot:(Arena.Fslots.put f_slots)))
    link_events;
  List.iter
    (fun (t, l, p) ->
      if t < 0.0 || l < 0 || l >= n_links || not (Float.is_finite p) || p < 0.0
         || p > 1.0
      then invalid_arg "Engine.run: bad loss event";
      f_cell.(0) <- p;
      schedule_abs t (Arena.loss_change ~link:l ~slot:(Arena.Fslots.put f_slots)))
    loss_events;
  List.iter
    (fun (t, p, d) ->
      if t < 0.0
         || (not (Float.is_finite p))
         || p < 0.0 || p > 1.0
         || (not (Float.is_finite d))
         || d < 0.0
      then invalid_arg "Engine.run: bad ctrl event";
      schedule_abs t
        (Arena.ctrl_change ~slot:(Arena.Slots.put pair_slots (p, d))))
    ctrl_events;

  let peak_depth = ref 0 in
  (* Allocation-free dispatch: read the minimum in place ([top] and
     the wheel's priority cell instead of [peek]/[pop]'s option-tuple
     pairs, or [top_prio]'s boxed float) and leave it in the wheel
     while the handler runs — the handler's first [schedule] replaces
     it via the [pending_drop] flag (see its declaration for the
     soundness argument), and an event that scheduled nothing is
     dropped afterwards. The queue depth is sampled before the logical
     pop, exactly as the historical loop measured it. *)
  let min_prio = Wheel.min_prio_cell q in
  let rec loop () =
    if not (Wheel.is_empty q) then begin
      let ev = Wheel.top q in
      let t = min_prio.(0) in
      if t <= duration then begin
        let d = Wheel.size q in
        if d > !peak_depth then peak_depth := d;
        pending_drop := true;
        now.(0) <- Float.max now.(0) t;
        incr events_processed;
        handle ev;
        if !pending_drop then begin
          pending_drop := false;
          Wheel.drop q
        end;
        (match inv with
        | Some chk -> Invariants.check_step chk ~now:now.(0) (Lazy.force inv_view)
        | None -> ());
        loop ()
      end
    end
  in
  (* Profiled variant of the loop: identical event processing, with
     the wheel's pop path (find-min scan, migration, the deferred
     drop) attributed to [cat_scheduler] and each handler to its tag's
     subsystem. Pushes from inside handlers count toward the handler's
     category. Kept separate so the unprofiled hot loop carries no
     per-event branches for it. *)
  let rec loop_prof p =
    if not (Wheel.is_empty q) then begin
      Obs.Prof.enter p;
      let ev = Wheel.top q in
      let t = min_prio.(0) in
      if t <= duration then begin
        let d = Wheel.size q in
        if d > !peak_depth then peak_depth := d;
        Obs.Prof.leave_silent p Obs.Prof.cat_scheduler;
        pending_drop := true;
        now.(0) <- Float.max now.(0) t;
        incr events_processed;
        Obs.Prof.enter p;
        handle ev;
        Obs.Prof.leave p prof_tab.(ev land 0xF);
        if !pending_drop then begin
          pending_drop := false;
          Obs.Prof.enter p;
          Wheel.drop q;
          Obs.Prof.leave_silent p Obs.Prof.cat_scheduler
        end;
        (match inv with
        | Some chk -> Invariants.check_step chk ~now:now.(0) (Lazy.force inv_view)
        | None -> ());
        loop_prof p
      end
      else Obs.Prof.leave_silent p Obs.Prof.cat_scheduler
    end
  in
  let loop () = match prof with None -> loop () | Some p -> loop_prof p in
  let wall_start = Sys.time () in
  (* The sink is attached for the event loop only: a caller's ring
     reused by a later run must not feed this run's sink. A
     flight-enabled run that dies dumps the ring before re-raising:
     every escaped exception — invariant violations included — becomes
     a replayable JSONL artifact. *)
  Obs.Flight.attach fl ~clock:now trace;
  Fun.protect
    ~finally:(fun () -> Obs.Flight.detach fl)
    (fun () ->
      try loop ()
      with e when fl_on ->
        let bt = Printexc.get_raw_backtrace () in
        (match Obs.Flight.dump fl with
        | Ok (path, n) ->
          Printf.eprintf "[flight] %s: dumped last %d events to %s\n%!"
            (Printexc.to_string e) n path
        | Error msg -> Printf.eprintf "[flight] dump failed: %s\n%!" msg);
        Printexc.raise_with_backtrace e bt);
  let wall_s = Sys.time () -. wall_start in
  now.(0) <- duration;
  (match recorder with
  | Some r -> Obs.Recorder.flush r ~now:duration
  | None -> ());

  let results =
    Array.map
      (fun f ->
        flush_bins_upto f duration;
        {
          received_bytes = f.received_bytes;
          goodput_series = List.rev f.goodput_rev;
          rate_series = List.rev f.rates_rev;
          completions =
            Array.to_list f.files
            |> List.filter_map (fun file ->
                   if file.done_at >= 0.0 && file.started_at >= 0.0 then
                     Some (file.started_at, file.done_at -. file.started_at)
                   else None);
          frames_lost = f.lost;
          final_rates = Array.copy f.x;
          mean_delay = Obs.Metrics.Histogram.mean f.delay_hist;
          p95_delay = Obs.Metrics.Histogram.quantile f.delay_hist 0.95;
        })
      flow_states
  in
  {
    flows = results;
    duration;
    queue_drops = !queue_drops;
    ecn_marks = !ecn_marks;
    buffer_peak_bytes = !buffer_peak;
    events_processed = !events_processed;
    perf =
      {
        wall_s;
        events_per_s =
          (if wall_s > 0.0 then float_of_int !events_processed /. wall_s else 0.0);
        wall_per_sim_s = (if duration > 0.0 then wall_s /. duration else 0.0);
        peak_queue_depth = !peak_depth;
      };
  }
