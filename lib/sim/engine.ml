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


(* ---------- frames, links and flows ---------- *)

(* The layer-2.5 header travels de-structured and unboxed: [seq]
   lives in the frame record, while the running q_r accumulator and the
   send time live in the run's float columns ([Pool.qr], [Pool.sent_at])
   at the frame's pool [id] — a float field of this mixed record would
   be boxed, so each per-hop price stamp and each injection would
   allocate. The source-route itself never rides in the frame at all —
   forwarding is pre-resolved into per-(flow, route) plan arrays at
   bootstrap (see [plans] in [t]). Records are recycled through the
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

(* Forwarding-plan actions other than a next link id (see
   [resolve_plan]). *)
let plan_deliver = -1
let plan_misroute = -2

(* The run's frame pool (libmoon's traffic generator likewise sends
   from a mempool instead of allocating each packet): injection takes
   a record off the free stack, and the frame's one terminal point — a
   collision, [drop_frame] (every drop reason, the backlog flush
   included) or the end of [Datapath.release] — pushes it back, so the
   steady state allocates no frame. A record minted while the stack is
   empty keeps its id for the run; the free stack and the float
   columns grow with the ids, so the stack can always hold every
   record. [live] is what the invariant checker audits against the
   frames the engine still holds: the queues, the media and the
   [held] frames the delay equalizer keeps back (queued
   Reorder_release events). *)
module Pool = struct
  type t = {
    mutable free : packet array;  (* free.(0 .. n_free - 1) *)
    mutable n_free : int;
    mutable minted : int;  (* records made; ids 0 .. minted - 1 *)
    mutable held : int;
    mutable qr : float array;  (* by id: q_r so far, saturating at Header.qr_max *)
    mutable sent_at : float array;  (* by id: injection time *)
  }

  let create () =
    { free = [||]; n_free = 0; minted = 0; held = 0; qr = [||]; sent_at = [||] }

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
   in the run state's float arrays rather than record fields: a mutable
   float field of a mixed record is boxed and every write allocates,
   while a float-array store does not. *)
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
  (* tcp — the token bucket's floats live in per-flow arrays of [t] *)
  tcp : Tcp.t option;
  (* traces — goodput-bin floats likewise *)
  mutable goodput_rev : (float * float) list;
  mutable rates_rev : (float * float array) list;
  delay_hist : Obs.Metrics.Histogram.t;  (* every one-way frame delay *)
  reverse_latency : float;
}

(* ---------- the run state ---------- *)

(* Everything one run reads and writes, built by [bootstrap] and passed
   to every handler. The fields are grouped by the layer that owns
   them; a layer may read another's. Floats that change during the run
   live in float arrays and one-slot cells, never in mutable fields: a
   mutable float field of this mixed record would box on every write.
   The functions over it are top-level and compiled with the record, so
   the [@inline] float helpers stay unboxed; a call into another module
   (compiled -opaque) is never inlined, so its floats cross through
   cells. *)
type t = {
  config : config;
  g : Multigraph.t;
  dom : Domain.t;
  rng : Rng.t;
  (* Backoff jitter lives on its own stream, split off only under
     [Heal] — a run under the other policies consumes exactly the
     historical draw sequence (and never draws jitter: no flow heals). *)
  jitter : Rng.t;
  inv : Invariants.t option;
  inv_view : Invariants.view Lazy.t;
  (* Scheduler: the wheel, its time cells and the deferred pop (see
     [schedule_abs]). [now] is the clock cell that [Tcp] and the flight
     ring read. *)
  q : int Wheel.t;
  now : float array;
  push_prio : float array;
  min_prio : float array;
  mutable pending_drop : bool;
  mutable events_processed : int;
  mutable peak_depth : int;
  (* Payload stores for the events whose operands don't pack into the
     int encoding; slots are released as the events dispatch. *)
  ack_slots : Ack.t Arena.Slots.t;
  pkt_slots : packet Arena.Slots.t;
  pair_slots : (float * float) Arena.Slots.t;
  f_slots : Arena.Fslots.t;
  f_cell : float array;
  (* Scratch cells for float accumulation on the per-frame paths. A
     float accumulator threaded through a recursive function is boxed
     on every iteration; accumulating into a flat float array keeps
     the loop allocation-free. Slot 0: domain sums and flow totals;
     slot 1: the route-pick walk. [arg_cell] hands a float to another
     module's per-frame entry point (the delay histogram, the ACK
     collector's q_r, the bucket depth), where an argument would box. *)
  facc : float array;
  arg_cell : float array;
  (* Observation: one stream. Every emission site writes its event
     once, into the ring [fl], which offers each row to [sink] (a
     one-slot ring stands in when only a sink is given). With neither
     a ring nor a sink that reads some kind, every site is a single
     never-taken branch on [obs_on]. [fl_cell] carries a grant's
     airtime and a delivery's delay to the ring. *)
  obs_on : bool;
  fl_on : bool;
  fl : Obs.Flight.t;
  fl_cell : float array;
  sink : Obs.Trace.sink option;
  recorder : Obs.Recorder.t option;
  (* Mac *)
  links : link_state array;
  caps : float array;  (* live capacities, following the fault events *)
  last_service : float array;
  dom_view : int array array;
  air_busy : int array;
  ok_odds : float array;
  tsd_scratch : int array;
  (* Mac: finite shared buffers (config.buffers) *)
  buf_on : bool;
  link_src : int array;
  node_ports : int array;
  port_occ : int array;
  node_occ : int array;
  mutable ecn_marks : int;
  mutable buffer_peak : int;
  (* Datapath *)
  flows : flow_state array;
  plans : int array array array;
  pool : Pool.t;
  mutable queue_drops : int;
  window_bits : float array;
  bin_start : float array;
  bin_bits : float array;
  files_head : int array;
  files_cum : int array;
  deliver_cbs : (int -> int -> unit) array;
  lost_cbs : (int -> unit) array;
  (* Transport *)
  tokens : float array;
  tokens_at : float array;
  rto_armed : float array;
  rto_slot : int array;
  (* Control *)
  gamma : float array;
  gsum : float array;
  gsum_at : int array;
  mutable gamma_epoch : int;
  carrier_links : int array;
  priced_links : int array;
  demand : float array;
  tick_price : float array;
  (* Faults: per-link frame-loss probability and the control plane's
     current ACK drop probability and extra ACK latency. All zero unless
     a fault plan says otherwise, and the random draws they guard
     happen only while a fault is active — so a run with empty fault
     schedules consumes exactly the randomness of a run without
     them. *)
  loss : float array;
  ctrl_drop : float array;
  ctrl_delay : float array;
}

let mbps_of_bits bits seconds = bits /. 1e6 /. seconds

(* ---------- scheduling and shared primitives ---------- *)

(* Deferred-pop fusion: the event being handled stays at the wheel
   minimum while its handler runs ([pending_drop] is set); the first
   event the handler schedules replaces it via [Wheel.drop_push],
   later ones are plain pushes, and a handler that schedules nothing
   has its minimum dropped afterwards. This is sound because every
   scheduled event lands at [now + dt] with [dt >= 0] and [now >=]
   the minimum's timestamp, so no push can overtake the in-flight
   minimum (FIFO tie-break: equal priority loses to the older
   sequence number). [@inline] on the float helpers: a function is
   called out of line with its float arguments and result boxed, and
   this compiler (no flambda) inlines one only when asked to. *)
let[@inline] schedule_abs s t ev =
  s.push_prio.(0) <- t;
  if s.pending_drop then begin
    s.pending_drop <- false;
    Wheel.drop_push s.q ev
  end
  else Wheel.push s.q ev

let[@inline] schedule s dt ev = schedule_abs s (s.now.(0) +. dt) ev

(* [Rng.float rng], bit for bit, without its boxed result. *)
let[@inline] uniform s = float_of_int (Rng.bits53 s.rng) *. 0x1p-53

(* A float operand parked in a slot store: loaded into [f_cell] and
   released. *)
let[@inline] take_float s slot =
  Arena.Fslots.load s.f_slots slot;
  Arena.Fslots.release s.f_slots slot;
  s.f_cell.(0)

let[@inline] total_rate s f =
  let x = f.x in
  s.facc.(0) <- 0.0;
  for i = 0 to Array.length x - 1 do
    s.facc.(0) <- s.facc.(0) +. x.(i)
  done;
  s.facc.(0)

(* A frame leaving the network undelivered on link [l] feeds the
   checker's ledger and the observation stream in one call, and goes
   back to the pool. The checker's polymorphic-variant payload is only
   built when a checker is attached. *)
let drop_frame s l (p : packet) reason =
  (match s.inv with
  | Some t ->
    Invariants.on_drop t ~now:s.now.(0) ~flow:p.flow ~link:(Some l)
      ~reason:(`Drop reason)
  | None -> ());
  if s.obs_on then Obs.Flight.drop s.fl ~link:l ~flow:p.flow ~seq:p.seq ~reason;
  Pool.release s.pool p

(* Prices, read by the datapath's per-hop stamp and written by the
   controller and the fault handlers. The congestion price of link l is
   d_l * Σ γ over I_l. It runs on every enqueue and for every priced
   link at each tick, so the sum over I_l is cached per twin class
   (links with the same I_l share one sum: 4 classes for the testbed's
   616 links) and walked again only after γ changed. γ is written at
   four points — the tick's dual update, and through [reset_price] the
   route-death reset, the route-restore reset and link revival — and
   each bumps [gamma_epoch]; a cached sum is valid while its class's
   stamp in [gsum_at] equals the epoch. The walk is the same
   left-to-right fold over the same I_l array, so the cached value is
   bit-identical to a fresh one. *)
let[@inline] d_est s l =
  let e = Estimator.estimate s.links.(l).estimator in
  if e <= 0.01 then 100.0 else 1.0 /. e

let[@inline] link_price s l =
  let k = Domain.twin s.dom l in
  if s.gsum_at.(k) <> s.gamma_epoch then begin
    let d = Domain.domain s.dom l in
    s.gsum.(k) <- 0.0;
    for i = 0 to Array.length d - 1 do
      s.gsum.(k) <- s.gsum.(k) +. s.gamma.(d.(i))
    done;
    s.gsum_at.(k) <- s.gamma_epoch
  end;
  d_est s l *. s.gsum.(k)

(* The self-healing paths' stale-price reset of one link's dual. *)
let reset_price s l =
  if s.gamma.(l) > 0.0 then begin
    s.gamma.(l) <- 0.0;
    s.gamma_epoch <- s.gamma_epoch + 1;
    if s.obs_on then Obs.Flight.price_reset s.fl ~link:l
  end

(* ---------- Mac ---------- *)

(* Grant, on-air and domain-idle state. The MAC only ever looks at
   links that can hold a frame: M, every route's first link plus every
   link of the forwarding plans. So every walk over I_l on the
   engine's hot paths is a walk over the view [dom_view.(l)] = I_l ∩ (M
   ∪ carriers), built at bootstrap (see there). *)
module Mac = struct
  (* O(1) domain-idle test: [air_busy.(l)] counts how many links of
     I_l are on the air right now, maintained at the four on_air
     transitions by an O(|view|) walk. Sound because the relation is
     symmetric by construction (Domain.create) and every link on the
     air is in M: a grant on [g] bumps exactly the links of M ∪
     carriers whose domains contain [g], and the idle test in
     [try_start] is only asked about links of M (a link with a
     backlog). *)
  let air_set s l =
    let d = s.dom_view.(l) in
    for i = 0 to Array.length d - 1 do
      s.air_busy.(d.(i)) <- s.air_busy.(d.(i)) + 1
    done

  let air_clear s l =
    let d = s.dom_view.(l) in
    for i = 0 to Array.length d - 1 do
      s.air_busy.(d.(i)) <- s.air_busy.(d.(i)) - 1
    done

  (* Byte-pool arbitration of a node's egress (MAC) queues. Admission
     and marking are pure functions of occupancy — no randomness — so
     the rng stream is identical with the feature on or off, and with
     [buffers = None] none of this state is touched (the legacy
     per-queue frame limit applies unchanged). Occupancy moves at
     exactly two places: charged on admission in [Datapath.enqueue],
     released when the frame leaves its queue (the grant's pop in
     [try_start], or the backlog flush when a link dies). *)
  let admit s b l bytes =
    let node = s.link_src.(l) in
    s.node_occ.(node) + bytes <= b.pool_bytes
    &&
    match b.policy with
    | Static ->
      (* Equal static partition of the pool across the node's ports. *)
      s.port_occ.(l) + bytes <= b.pool_bytes / max 1 s.node_ports.(node)
    | Dynamic_threshold alpha ->
      (* Choudhury–Hahne DT: a port may hold up to alpha times the
         node's remaining free pool, so thresholds shrink as the pool
         fills and idle ports cede space to busy ones. *)
      float_of_int (s.port_occ.(l) + bytes)
      <= alpha *. float_of_int (b.pool_bytes - s.node_occ.(node))

  let charge s l bytes =
    let node = s.link_src.(l) in
    s.port_occ.(l) <- s.port_occ.(l) + bytes;
    s.node_occ.(node) <- s.node_occ.(node) + bytes;
    if s.node_occ.(node) > s.buffer_peak then s.buffer_peak <- s.node_occ.(node)

  let discharge s l bytes =
    s.port_occ.(l) <- s.port_occ.(l) - bytes;
    let node = s.link_src.(l) in
    s.node_occ.(node) <- s.node_occ.(node) - bytes

  let rec try_start s l =
    let st = s.links.(l) in
    if st.on_air == no_frame && (not (Fifo.is_empty st.queue)) && s.air_busy.(l) = 0
    then begin
      let pkt = Fifo.pop st.queue in
      if s.buf_on then discharge s l pkt.bytes;
      st.on_air <- pkt;
      air_set s l;
      s.last_service.(l) <- s.now.(0);
      (* CSMA/CA contention: the more backlogged stations share the
         collision domain, the likelier two of them pick the same
         slot. A collided frame still occupies the medium (the waste
         the delta margin of (3) buys headroom against) but is lost.
         With the controller keeping airtime below 1 - delta, queues
         stay short and collisions stay rare; blasting without CC
         keeps every contender backlogged and pays the full price. *)
      (if s.config.collision_prob > 0.0 then begin
         (* Only links of M can be backlogged. *)
         let d = s.dom_view.(l) in
         let contenders = ref 0 in
         for i = 0 to Array.length d - 1 do
           let l' = d.(i) in
           if l' <> l && not (Fifo.is_empty s.links.(l').queue) then
             incr contenders
         done;
         st.air_collided <- uniform s > s.ok_odds.(!contenders)
       end
       else st.air_collided <- false);
      (* Injected frame loss (fault plans): drawn after the collision
         draw, and only while a loss window is active on this link, so
         fault-free runs consume no extra randomness. Like a
         collision, a lossy frame still burns its airtime. *)
      st.air_faulted <-
        (not st.air_collided) && s.loss.(l) > 0.0 && uniform s < s.loss.(l);
      let cap_l = s.caps.(l) in
      if cap_l <= 0.0 then begin
        (* Link died under us: drop the frame. *)
        st.on_air <- no_frame;
        air_clear s l;
        s.queue_drops <- s.queue_drops + 1;
        drop_frame s l pkt Obs.Trace.Link_down;
        try_start s l
      end
      else begin
        (* [Units.tx_time] inlined (same expression, so bit-identical):
           a cross-module call with a float argument boxes the
           argument and the result on every grant. *)
        let airtime = float_of_int pkt.bytes /. (cap_l *. 1e6 /. 8.0) in
        if s.obs_on then begin
          s.fl_cell.(0) <- airtime;
          Obs.Flight.grant s.fl ~link:l ~flow:pkt.flow ~seq:pkt.seq
            ~collided:st.air_collided
        end;
        schedule s airtime (Arena.tx_end l)
      end
    end

  (* Serve backlogged links of the freed domain, least-recently-served
     first (CSMA fairness). Insertion sort on (last_service, id) — a
     total order, so the result is exactly what a List.sort produces —
     into [tsd_scratch], sized to the largest view ([try_start] never
     re-enters this function, so one buffer suffices). The candidates
     come from the view of I_l: a Tx_end costs O(|view|) plus the sort
     of the backlogged ones, a handful of links even when I_l holds
     hundreds, where insertion sort is also the fastest choice. *)
  let try_start_domain s l =
    let d = s.dom_view.(l) in
    let scratch = s.tsd_scratch in
    let m = ref 0 in
    for i = 0 to Array.length d - 1 do
      let l' = d.(i) in
      if
        s.links.(l').on_air == no_frame
        && not (Fifo.is_empty s.links.(l').queue)
      then begin
        scratch.(!m) <- l';
        incr m
      end
    done;
    let m = !m in
    for i = 1 to m - 1 do
      let v = scratch.(i) in
      let j = ref (i - 1) in
      while
        !j >= 0
        &&
        let u = scratch.(!j) in
        let c = Float.compare s.last_service.(u) s.last_service.(v) in
        c > 0 || (c = 0 && u > v)
      do
        scratch.(!j + 1) <- scratch.(!j);
        decr j
      done;
      scratch.(!j + 1) <- v
    done;
    for i = 0 to m - 1 do
      try_start s scratch.(i)
    done
end

(* ---------- Datapath ---------- *)

(* Inject, stamp and forward along the pre-resolved source routes,
   deliver through the equalizer and the reorder buffer. *)
module Datapath = struct
  let enqueue s l (pkt : packet) =
    let st = s.links.(l) in
    s.window_bits.(l) <- s.window_bits.(l) +. (8.0 *. float_of_int pkt.bytes);
    st.had_traffic <- true;
    let admitted =
      match s.config.buffers with
      | None -> Fifo.length st.queue < queue_limit
      | Some b -> Mac.admit s b l pkt.bytes
    in
    if not admitted then begin
      s.queue_drops <- s.queue_drops + 1;
      drop_frame s l pkt Obs.Trace.Queue_overflow
    end
    else begin
      (if s.buf_on then begin
         Mac.charge s l pkt.bytes;
         (* ECN: mark-on-enqueue once the port's occupancy (frame
            included) reaches the threshold; the CE bit is sticky
            across hops and echoed to the sender by the receiver. *)
         match s.config.buffers with
         | Some { ecn_threshold_bytes = Some th; _ }
           when s.port_occ.(l) >= th ->
           if not pkt.ce then begin
             pkt.ce <- true;
             s.ecn_marks <- s.ecn_marks + 1;
             if s.obs_on then
               Obs.Flight.ecn_mark s.fl ~link:l ~flow:pkt.flow ~seq:pkt.seq
                 ~occ:s.port_occ.(l)
           end
         | _ -> ()
       end);
      (* Stamp the congestion price for this hop into the running
         accumulator ([Header.add_price] semantics: saturate at the
         wire format's q_r ceiling). *)
      let qr = s.pool.Pool.qr in
      qr.(pkt.id) <- Float.min Header.qr_max (qr.(pkt.id) +. link_price s l);
      Fifo.push st.queue pkt;
      if s.obs_on then
        Obs.Flight.enqueue s.fl ~link:l ~flow:pkt.flow ~seq:pkt.seq
          ~bytes:pkt.bytes ~qlen:(Fifo.length st.queue);
      Mac.try_start s l
    end

  (* Weighted route draw over the rate split, accumulating in a
     scratch cell (see [facc]) so the per-frame walk allocates
     nothing. *)
  let pick_route s f =
    let tot = total_rate s f in
    if tot <= 0.0 || Array.length f.routes = 0 then 0
    else begin
      let r = uniform s *. tot in
      let x = f.x in
      let n = Array.length x in
      s.facc.(1) <- 0.0;
      let i = ref 0 in
      let hit = ref (n - 1) in
      while !i < n do
        s.facc.(1) <- s.facc.(1) +. x.(!i);
        if r < s.facc.(1) then begin
          hit := !i;
          i := n
        end
        else incr i
      done;
      !hit
    end

  (* [route] pins the frame to one route (recovery reclaim probes);
     without it the route is drawn from the rate split, consuming one
     rng draw — probes must not perturb that stream. *)
  let inject s ?route f ~bytes ~seq =
    let ri = match route with Some r -> r | None -> pick_route s f in
    let pkt = Pool.take s.pool in
    pkt.flow <- f.id;
    pkt.route_idx <- ri;
    pkt.seq <- seq;
    pkt.bytes <- bytes;
    pkt.hop <- 0;
    pkt.ce <- false;
    s.pool.Pool.qr.(pkt.id) <- 0.0;
    s.pool.Pool.sent_at.(pkt.id) <- s.now.(0);
    f.injected_window.(ri) <- f.injected_window.(ri) +. float_of_int bytes;
    (match s.inv with
    | Some t -> (
      match route with
      | Some _ -> Invariants.on_probe t ~now:s.now.(0) ~flow:f.id
      | None -> Invariants.on_inject t ~now:s.now.(0) ~flow:f.id)
    | None -> ());
    enqueue s f.route_links.(ri).(0) pkt

  let[@inline] flush_bins_upto s f t =
    while s.bin_start.(f.id) +. 1.0 <= t do
      f.goodput_rev <-
        (s.bin_start.(f.id) +. 1.0, mbps_of_bits s.bin_bits.(f.id) 1.0) :: f.goodput_rev;
      s.bin_bits.(f.id) <- 0.0;
      s.bin_start.(f.id) <- s.bin_start.(f.id) +. 1.0
    done

  (* Files start and complete in index order (a start needs the
     predecessor done; a completion needs cumulative progress past
     every earlier boundary), so this resumes from the first file that
     is not yet fully stamped instead of rescanning the whole schedule
     on every delivered frame. [files_head] is that resume index per
     flow; [files_cum] the byte boundary before it. A file completes
     when the receiver's cumulative progress passes its boundary; it
     starts when the previous finished (or at its arrival). Under TCP,
     progress means in-order delivered bytes (retransmitted duplicates
     must not count); UDP frames are never duplicated, so raw arrivals
     are the right measure there. *)
  let completions_check s f =
    let nf = Array.length f.files in
    if s.files_head.(f.id) < nf then begin
      let progress =
        match f.tcp with
        | Some _ -> f.delivered_in_order_bytes
        | None -> f.received_bytes
      in
      let i = ref s.files_head.(f.id) in
      let cum = ref s.files_cum.(f.id) in
      let scan = ref true in
      while !scan && !i < nf do
        let file = f.files.(!i) in
        let prev_done = if !i = 0 then 0.0 else f.files.(!i - 1).done_at in
        if
          file.started_at < 0.0
          && file.arrival <= s.now.(0)
          && (!i = 0 || prev_done >= 0.0)
        then file.started_at <- Float.max file.arrival prev_done;
        cum := !cum + file.fbytes;
        if file.done_at < 0.0 && progress >= !cum then file.done_at <- s.now.(0);
        if file.done_at >= 0.0 then begin
          if file.started_at >= 0.0 && !i = s.files_head.(f.id) then begin
            s.files_head.(f.id) <- !i + 1;
            s.files_cum.(f.id) <- !cum
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

  (* A delivered frame's last stop: its q_r and the bytes the reorder
     buffer keeps are read out, and the record goes back to the pool.
     Every frame's one-way delay (queueing + transmission along the
     route) lands in a streaming histogram: exact count/mean,
     quantiles within 0.5% relative error, bounded memory. *)
  let release s f (pkt : packet) =
    let delay = s.now.(0) -. s.pool.Pool.sent_at.(pkt.id) in
    s.arg_cell.(0) <- delay;
    Obs.Metrics.Histogram.observe_cell f.delay_hist s.arg_cell;
    if s.obs_on then begin
      s.fl_cell.(0) <- delay;
      Obs.Flight.delivery s.fl ~flow:f.id ~seq:pkt.seq ~bytes:pkt.bytes
    end;
    s.arg_cell.(0) <- s.pool.Pool.qr.(pkt.id);
    Ack.on_packet ~ce:pkt.ce f.collector ~route:pkt.route_idx ~qr:s.arg_cell
      ~seq:pkt.seq ~bytes:pkt.bytes;
    flush_bins_upto s f s.now.(0);
    f.received_bytes <- f.received_bytes + pkt.bytes;
    s.bin_bits.(f.id) <- s.bin_bits.(f.id) +. (8.0 *. float_of_int pkt.bytes);
    Reorder.push_cb f.reorder ~route:pkt.route_idx ~seq:pkt.seq pkt.bytes
      ~deliver:s.deliver_cbs.(f.id) ~lost:s.lost_cbs.(f.id);
    (match f.tcp with
    | None -> ()
    | Some _ ->
      (* Cumulative TCP ACK on every arrival (dup-acks included); the
         ack echoes the arriving frame's CE bit (DCTCP-style immediate
         per-frame echo). *)
      let cum = Reorder.next_expected f.reorder in
      schedule s f.reverse_latency (Arena.tcp_ack ~flow:f.id ~cum ~ece:pkt.ce));
    completions_check s f;
    Pool.release s.pool pkt

  let deliver s f (pkt : packet) =
    (match s.inv with
    | Some t -> Invariants.on_deliver t ~now:s.now.(0) ~flow:f.id
    | None -> ());
    if s.config.delay_equalize then begin
      let delay = s.now.(0) -. s.pool.Pool.sent_at.(pkt.id) in
      Reorder.Equalizer.observe f.equalizer ~route:pkt.route_idx ~delay;
      let hold = Reorder.Equalizer.release_delay f.equalizer ~route:pkt.route_idx in
      if hold > 1e-6 then begin
        s.pool.Pool.held <- s.pool.Pool.held + 1;
        schedule s hold
          (Arena.reorder_release ~flow:f.id ~slot:(Arena.Slots.put s.pkt_slots pkt))
      end
      else release s f pkt
    end
    else release s f pkt

  let reorder_release s code =
    let slot = Arena.slot20 code in
    let pkt = Arena.Slots.get s.pkt_slots slot in
    Arena.Slots.release s.pkt_slots slot;
    s.pool.Pool.held <- s.pool.Pool.held - 1;
    release s s.flows.(Arena.flow code) pkt

  let tx_end s l =
    let st = s.links.(l) in
    let pkt = st.on_air in
    if pkt == no_frame then ()
    else if st.air_collided then begin
      (* Collided: airtime spent, frame lost. *)
      st.on_air <- no_frame;
      Mac.air_clear s l;
      st.air_collided <- false;
      (match s.inv with
      | Some t ->
        Invariants.on_drop t ~now:s.now.(0) ~flow:pkt.flow ~link:(Some l)
          ~reason:`Collision
      | None -> ());
      if s.obs_on then
        Obs.Flight.collision s.fl ~link:l ~flow:pkt.flow ~seq:pkt.seq;
      Pool.release s.pool pkt;
      Mac.try_start_domain s l
    end
    else if st.air_faulted then begin
      (* Fault-injected loss: airtime spent, frame lost. Not a queue
         drop — the frame made it onto the medium. *)
      st.on_air <- no_frame;
      Mac.air_clear s l;
      st.air_faulted <- false;
      drop_frame s l pkt Obs.Trace.Fault_injected;
      Mac.try_start_domain s l
    end
    else begin
      st.on_air <- no_frame;
      Mac.air_clear s l;
      if s.obs_on then
        Obs.Flight.dequeue s.fl ~link:l ~flow:pkt.flow ~seq:pkt.seq;
      (* The layer-2.5 source-route decision, pre-resolved at
         bootstrap into the plan array. *)
      let act = s.plans.(pkt.flow).(pkt.route_idx).(pkt.hop) in
      if act = plan_deliver then deliver s s.flows.(pkt.flow) pkt
      else if act = plan_misroute then drop_frame s l pkt Obs.Trace.Misroute
      else begin
        pkt.hop <- pkt.hop + 1;
        enqueue s act pkt
      end;
      Mac.try_start_domain s l
    end
end

(* ---------- Transport ---------- *)

(* UDP pacing and the TCP sender, both fed by the controller's rates. *)
module Transport = struct
  let sendable_bytes s f =
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
            file.arrival <= s.now.(0)
            && (i = 0 || f.files.(i - 1).done_at >= 0.0)
          then acc := !acc + file.fbytes)
        f.files;
      !acc
    | Workload.Empirical _ ->
      (* Open-loop: every arrived transfer queues on the persistent
         connection immediately — completion times of backlogged
         transfers include their queueing wait. *)
      Array.fold_left
        (fun acc file -> if file.arrival <= s.now.(0) then acc + file.fbytes else acc)
        0 f.files

  (* UDP pacing: one frame per Inject event, next scheduled from the
     controller's total rate — deterministic gaps (CBR, the historical
     behaviour) or, for Poisson-paced empirical workloads, exponential
     gaps with the same mean. The exponential draw comes from the
     run's master stream as events execute; CBR flows draw nothing, so
     legacy runs consume exactly the historical sequence. *)
  let schedule_inject s f =
    if f.active && not f.inject_scheduled then begin
      let rate = total_rate s f in
      if rate < 0.05 then begin
        f.inject_scheduled <- true;
        schedule s 0.2 (Arena.inject f.id)
      end
      else begin
        let dt = 8.0 *. float_of_int s.config.frame_bytes /. (rate *. 1e6) in
        let dt =
          match f.spec.workload with
          | Workload.Empirical { pacing = Workload.Poisson_paced; _ } ->
            Rng.exponential s.rng ~rate:(1.0 /. dt)
          | _ -> dt
        in
        f.inject_scheduled <- true;
        schedule s dt (Arena.inject f.id)
      end
    end

  let udp_inject s f =
    f.inject_scheduled <- false;
    if f.active && Array.length f.routes > 0 then begin
      let rate = total_rate s f in
      (* File workloads are reliable: the sender keeps transmitting
         (the application resends what was lost) until the receiver
         holds the full file, so MAC losses cost time, not data. *)
      if rate >= 0.05 && f.received_bytes < sendable_bytes s f then begin
        Datapath.inject s f ~bytes:s.config.frame_bytes
          ~seq:(f.next_seq land 0xFFFFFFFF);
        f.next_seq <- f.next_seq + 1
      end;
      schedule_inject s f
    end

  (* TCP sending: window-driven, policed by the controller's rate
     through a token bucket of {!Invariants.bucket_depth}. *)
  let refill_tokens s f =
    let rate = total_rate s f in
    let depth = s.arg_cell in
    depth.(0) <- rate *. 1e6 /. 8.0;
    Invariants.bucket_depth ~frame_bytes:s.config.frame_bytes depth;
    s.tokens.(f.id) <-
      Float.min depth.(0)
        (s.tokens.(f.id) +. (rate *. 1e6 /. 8.0 *. (s.now.(0) -. s.tokens_at.(f.id))));
    s.tokens_at.(f.id) <- s.now.(0)

  (* Retransmission timers. A Tcp_rto event carries the deadline it
     was armed for, and does nothing when it pops unless that is still
     the flow's deadline (the 1e-9 test in [rto]). [arm_rto] runs after
     every send and every ack, mostly with the deadline unchanged, so
     it skips the push when the flow's newest queued Tcp_rto already
     carries the current deadline: [rto_armed.(f)] is that event's
     deadline (nan once it has popped) and [rto_slot.(f)] its slot.
     Skipping is exact. The skipped event would carry the same deadline
     dl as the queued one, at a time no earlier and with a later FIFO
     sequence number, so the queued one pops first, at a time >= dl. If
     the flow's deadline is then still within 1e-9 of dl, the timeout
     fires and moves it; otherwise it had already moved away. Every
     deadline set from then on is now + rto with now >= dl and rto (at
     least a smoothed round trip) far above 1e-9, so the skipped event
     could only have popped stale. Only the event count changes. *)
  let arm_rto s f =
    match f.tcp with
    | None -> ()
    | Some tcp ->
      let dl = (Tcp.rto_deadline_cell tcp).(0) in
      if (not (Float.is_nan dl)) && dl <> s.rto_armed.(f.id) then begin
        s.f_cell.(0) <- dl;
        let slot = Arena.Fslots.put s.f_slots in
        s.rto_armed.(f.id) <- dl;
        s.rto_slot.(f.id) <- slot;
        schedule_abs s (Float.max dl s.now.(0)) (Arena.tcp_rto ~flow:f.id ~slot)
      end

  (* The controller gates TCP by backpressure: when the flow's token
     bucket is empty the source holds the next segment and resumes
     when tokens accrue (the tun/tap queue filling up and blocking the
     stack). Packets are only lost to MAC contention (queue overflow,
     delta-dependent) and to reordering - the Section 6.4 effects. *)
  let rec tcp_try_send s f =
    let fb = s.config.frame_bytes in
    (match f.tcp with
    | None -> ()
    | Some tcp ->
      if f.active && Array.length f.routes > 0 && not (Tcp.finished tcp) then begin
        let tokens_ok =
          if not s.config.enable_cc then true
          else begin
            refill_tokens s f;
            s.tokens.(f.id) >= float_of_int fb
          end
        in
        if not tokens_ok then begin
          if not f.inject_scheduled then begin
            let rate = total_rate s f in
            let wait =
              if rate < 0.05 then 0.2
              else
                (float_of_int fb -. s.tokens.(f.id))
                *. 8.0 /. (rate *. 1e6)
            in
            f.inject_scheduled <- true;
            schedule s (Float.max wait 1e-4) (Arena.inject f.id)
          end
        end
        else begin
          let new_data_limit =
            match Workload.total_bytes f.spec.workload with
            | None -> None
            | Some _ ->
              (* ceil: the final partial segment is sendable *)
              Some ((sendable_bytes s f + fb - 1) / fb)
          in
          let seq = Tcp.take_segment ?new_data_limit tcp in
          if seq >= 0 then begin
            if s.config.enable_cc then
              s.tokens.(f.id) <- s.tokens.(f.id) -. float_of_int fb;
            Datapath.inject s f ~bytes:fb ~seq;
            tcp_try_send s f
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
      schedule s 0.2 (Arena.inject f.id)
    | Some _ | None -> ());
    arm_rto s f

  let inject s f =
    match f.spec.transport with
    | Udp -> udp_inject s f
    | Tcp_transport ->
      f.inject_scheduled <- false;
      tcp_try_send s f

  let start s f =
    f.active <- true;
    match f.spec.transport with
    | Udp -> schedule_inject s f
    | Tcp_transport -> tcp_try_send s f

  let ack s code =
    let f = s.flows.(Arena.flow code) in
    match f.tcp with
    | None -> ()
    | Some tcp ->
      let cum = Arena.tcp_ack_cum code and ece = Arena.tcp_ack_ece code in
      Tcp.on_ack ~ece tcp ~cum_ack:cum;
      tcp_try_send s f;
      arm_rto s f

  let rto s code =
    let f = s.flows.(Arena.flow code) in
    let slot = Arena.slot20 code in
    let armed_for = take_float s slot in
    if slot = s.rto_slot.(f.id) then s.rto_armed.(f.id) <- Float.nan;
    match f.tcp with
    | None -> ()
    | Some tcp ->
      let dl = (Tcp.rto_deadline_cell tcp).(0) in
      (* A nan deadline (no timer) fails the test: a stale timer. *)
      if Float.abs (dl -. armed_for) < 1e-9 && dl <= s.now.(0) +. 1e-9 then begin
        Tcp.on_rto tcp;
        tcp_try_send s f
      end
end

(* ---------- Control ---------- *)

(* The §4 controller: the 100 ms tick (demand, dual update, capacity
   estimation, ACK emission), the per-ACK rate update of
   {!Multi_cc.update_rate} and {!Multi_cc.update_average}, and the
   dead-route policies. *)
module Control = struct
  let probe_rate = 0.2

  (* The §4.3 proximal rate update of route [i] from the q_r its ACK
     reported, floored at the probe rate: a route priced out of use
     must still carry occasional packets, or its q_r would never
     refresh and the route could never be reclaimed when conditions
     improve (e.g. the Figure 9 contender leaving). [a], [u'] and [qr]
     arrive boxed, so the call into [Multi_cc] boxes nothing. *)
  let update_rate f i ~a ~u' ~qr =
    Multi_cc.update_rate ~a ~gain:cc_gain ~u' ~q:qr ~x:f.x ~x_bar:f.x_bar i;
    f.x.(i) <- Float.max probe_rate f.x.(i)

  (* Self-healing ([Heal], UDP flows): a route the detector declares
     dead has its rate state expired on the spot — the §4 duals of its
     unusable links are reset instead of draining, its mass is
     redistributed onto the routes that survive the LSDB
     re-discovery, and reclaim probes are armed on the backoff
     schedule. A later ack on the route restores its initial rate. *)
  let route_dead s f i ~since det =
    let detect_s = s.now.(0) -. since in
    if s.obs_on then
      Obs.Flight.route_dead s.fl ~flow:f.id ~route:i ~detect_s;
    let dead_mass = f.x.(i) in
    f.x.(i) <- 0.0;
    f.x_bar.(i) <- 0.0;
    Array.iter (fun l -> if s.caps.(l) <= 0.0 then reset_price s l) f.route_links.(i);
    let surv =
      Recovery.survivors s.g ~caps:s.caps ~src:f.spec.src ~routes:(Array.to_list f.routes)
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
    schedule s
      (Recovery.Backoff.delay s.jitter ~attempt:0)
      (Arena.reclaim_probe ~flow:f.id ~route:i ~gen:f.reclaim_gen.(i))

  let route_restored s f i ~down_for =
    if s.obs_on then
      Obs.Flight.route_restored s.fl ~flow:f.id ~route:i ~down_s:down_for;
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
    Array.iter
      (fun l -> Array.iter (reset_price s) (Domain.domain s.dom l))
      f.route_links.(i);
    let restore = Float.max probe_rate f.init_x.(i) in
    f.x.(i) <- restore;
    f.x_bar.(i) <- restore;
    f.reclaim_attempt.(i) <- 0

  (* One frame down the dead route; its delivery (and the ack that
     reports it) is what flips the detector back to alive. The next
     probe backs off exponentially up to the cap. *)
  let reclaim_probe s code =
    let f = s.flows.(Arena.flow code) in
    let i = Arena.probe_route code and gen = Arena.probe_gen code in
    match f.healing with
    | Some det
      when f.active && gen = f.reclaim_gen.(i)
           && Recovery.Detector.dead det i ->
      Datapath.inject ~route:i s f ~bytes:s.config.frame_bytes
        ~seq:(f.next_seq land 0xFFFFFFFF);
      f.next_seq <- f.next_seq + 1;
      if s.obs_on then
        Obs.Flight.route_probe s.fl ~flow:f.id ~route:i
          ~attempt:f.reclaim_attempt.(i);
      f.reclaim_attempt.(i) <- f.reclaim_attempt.(i) + 1;
      schedule s
        (Recovery.Backoff.delay s.jitter ~attempt:f.reclaim_attempt.(i))
        (Arena.reclaim_probe ~flow:f.id ~route:i ~gen)
    | _ -> ()

  let cc_update s f (ack : Ack.t) =
    if s.config.enable_cc && Array.length f.routes > 0 then begin
      let frame_bytes = float_of_int s.config.frame_bytes in
      let a = Alpha.current f.alpha in
      let u' = Utility.proportional_fair.Utility.u' (total_rate s f) in
      List.iter
        (fun (r : Ack.route_report) ->
          let i = r.Ack.route in
          match f.healing with
          | Some det -> (
            let injected = f.injected_window.(i) in
            f.injected_window.(i) <- 0.0;
            match
              Recovery.Detector.observe det ~route:i ~now:s.now.(0) ~injected
                ~acked:(float_of_int r.Ack.bytes) ~frame_bytes
            with
            | Recovery.Detector.Down { since } ->
              route_dead s f i ~since det
            | Recovery.Detector.Recovered { down_for } ->
              route_restored s f i ~down_for
            | Recovery.Detector.Still_down -> () (* rate held at zero *)
            | Recovery.Detector.Alive | Recovery.Detector.Suspect _ ->
              update_rate f i ~a ~u' ~qr:r.Ack.qr)
          | None ->
            (* Failure detection (Section 6.1: link failures are caught
               within hundreds of ms): a route we keep feeding that
               returns no bytes for several ACK periods is treated as
               broken and backed off multiplicatively; the stale q_r it
               last reported would otherwise keep it attractive. The
               halving path's floor: [Probe_floor] (and [Heal]'s TCP
               flows) keep a dead route carrying the occasional frame
               so it is reclaimed once it heals; [Abandon] starves a
               recovered route forever because its q_r never
               refreshes. *)
            if
              Recovery.missed ~injected:f.injected_window.(i)
                ~acked:(float_of_int r.Ack.bytes) ~frame_bytes
            then f.dead_acks.(i) <- f.dead_acks.(i) + 1
            else if r.Ack.bytes > 0 then f.dead_acks.(i) <- 0;
            f.injected_window.(i) <- 0.0;
            if f.dead_acks.(i) >= Recovery.dead_ack_threshold then begin
              let floor =
                match s.config.dead_route with
                | Abandon -> 0.0
                | Probe_floor | Heal -> probe_rate
              in
              f.x.(i) <- Float.max floor (f.x.(i) *. 0.5);
              f.x_bar.(i) <- Float.max floor (f.x_bar.(i) *. 0.5)
            end
            else update_rate f i ~a ~u' ~qr:r.Ack.qr)
        ack.Ack.reports;
      Multi_cc.update_average ~a ~x:f.x ~x_bar:f.x_bar;
      Alpha.observe f.alpha (total_rate s f);
      if s.obs_on then
        Obs.Flight.event s.fl
          (Obs.Trace.Rate_update
             { t = s.now.(0); flow = f.id; rates = Array.copy f.x });
      (match s.inv with
      | Some t -> Invariants.on_rate t ~flow:f.id ~rate:(total_rate s f)
      | None -> ());
      (* refresh TCP policing promptly *)
      match f.tcp with Some _ -> Transport.tcp_try_send s f | None -> ()
    end

  let ack_arrive s code =
    let slot = Arena.slot20 code in
    let ack = Arena.Slots.get s.ack_slots slot in
    Arena.Slots.release s.ack_slots slot;
    cc_update s s.flows.(Arena.flow code) ack

  let tick s =
    (* 1. Demand measurement and dual update (carrier/priced sets
       only; everything else has zero demand and zero gamma). Each
       price's demand sum walks the view of I_l, which holds every
       carrier of I_l. The demand scratch's non-carrier entries stay
       0.0 forever. *)
    Array.iter
      (fun l ->
        let bits = s.window_bits.(l) in
        s.window_bits.(l) <- 0.0;
        s.demand.(l) <- bits /. 1e6 *. d_est s l /. s.config.control_period)
      s.carrier_links;
    Array.iter
      (fun l ->
        let y =
          let d = s.dom_view.(l) in
          s.facc.(0) <- 0.0;
          for i = 0 to Array.length d - 1 do
            s.facc.(0) <- s.facc.(0) +. s.demand.(d.(i))
          done;
          s.facc.(0)
        in
        let upd = s.gamma.(l) +. (Alpha.base *. (y -. (1.0 -. s.config.delta))) in
        s.gamma.(l) <- Float.max 0.0 upd)
      s.priced_links;
    s.gamma_epoch <- s.gamma_epoch + 1;
    if s.obs_on then begin
      (* The price rows, d_l Σ_{i∈I_l} γ_i by link, go to the ring in
         one call beside [gamma]. *)
      for k = 0 to Array.length s.priced_links - 1 do
        let l = s.priced_links.(k) in
        s.tick_price.(l) <- link_price s l
      done;
      Obs.Flight.prices s.fl ~links:s.priced_links ~gamma:s.gamma ~price:s.tick_price
    end;
    (* 2. Capacity estimation (only carriers are ever priced or
       transmitted on, so only they need tracking). *)
    Array.iter
      (fun l ->
        let st = s.links.(l) in
        Estimator.set_mode st.estimator
          (if st.had_traffic then Estimator.Active_traffic else Estimator.Probing);
        st.had_traffic <- false;
        Estimator.observe st.estimator ~now:s.now.(0) ~true_capacity:s.caps.(l))
      s.carrier_links;
    (* 3. Destination ACK emission + trace recording. *)
    Array.iter
      (fun f ->
        if f.active then begin
          let ack = Ack.emit f.collector ~now:s.now.(0) in
          if s.obs_on then
            Obs.Flight.event s.fl
              (Obs.Trace.Ack
                 {
                   t = s.now.(0);
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
             while a drop window is active — see [loss] in [t]. *)
          let ack_lost = s.ctrl_drop.(0) > 0.0 && uniform s < s.ctrl_drop.(0) in
          if not ack_lost then
            schedule s
              (f.reverse_latency +. s.ctrl_delay.(0))
              (Arena.ack_arrive ~flow:f.id ~slot:(Arena.Slots.put s.ack_slots ack));
          f.rates_rev <- (s.now.(0), Array.copy f.x) :: f.rates_rev
        end)
      s.flows;
    (match s.inv with
    | Some t -> Invariants.on_tick t ~now:s.now.(0) (Lazy.force s.inv_view)
    | None -> ());
    schedule s s.config.control_period Arena.control_tick
end

(* ---------- Faults ---------- *)

(* The scheduled capacity, frame-loss and control-plane changes of a
   fault plan. *)
module Faults = struct
  let capacity_change s code =
    let l = Arena.link20 code in
    let c = take_float s (Arena.slot24 code) in
    let was_dead = s.caps.(l) <= 0.0 in
    s.caps.(l) <- Float.max 0.0 c;
    if s.obs_on then
      Obs.Flight.link_event s.fl ~link:l ~capacity:s.caps.(l);
    (* A dead link drops its backlog; a healthier one may start. *)
    if s.caps.(l) <= 0.0 then begin
      let st = s.links.(l) in
      (* The flushed backlog counts as queue drops — frames must not
         vanish from the accounting when a link dies. *)
      s.queue_drops <- s.queue_drops + Fifo.length st.queue;
      Fifo.iter
        (fun p ->
          if s.buf_on then Mac.discharge s l p.bytes;
          drop_frame s l p Obs.Trace.Backlog_cleared)
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
      if s.config.dead_route = Heal && was_dead then begin
        Array.iter (reset_price s) (Domain.domain s.dom l);
        (* The capacity estimate is just as stale as the price: it
           tracked toward zero while the link was dead (offered
           traffic keeps the fast Active_traffic time constant), so
           1/estimate would misprice the healed link for several
           control periods. Restart it from a fresh observation —
           the draw comes from the estimator's own per-link rng
           stream, so no other link's sequence shifts. *)
        Estimator.reset s.links.(l).estimator ~now:s.now.(0) ~capacity:s.caps.(l)
      end;
      Mac.try_start s l
    end

  let loss_change s code =
    let l = Arena.link20 code in
    let p = take_float s (Arena.slot24 code) in
    s.loss.(l) <- p;
    if s.obs_on then Obs.Flight.loss_event s.fl ~link:l ~prob:p

  let ctrl_change s code =
    let slot = Arena.slot4 code in
    let p, d = Arena.Slots.get s.pair_slots slot in
    Arena.Slots.release s.pair_slots slot;
    s.ctrl_drop.(0) <- p;
    s.ctrl_delay.(0) <- d;
    if s.obs_on then Obs.Flight.ctrl_event s.fl ~drop:p ~delay:d
end

(* ---------- dispatch ---------- *)

(* Tag dispatch on the int encoding (a jump table); each arm decodes
   its packed operands and releases any payload slot. The arm
   comments name the historical constructors. *)
let handle s code =
  match code land 0xF with
  | 0 (* Tx_end *) -> Datapath.tx_end s (Arena.link code)
  | 10 (* Capacity_change *) -> Faults.capacity_change s code
  | 11 (* Loss_change *) -> Faults.loss_change s code
  | 12 (* Ctrl_change *) -> Faults.ctrl_change s code
  | 1 (* Inject *) -> Transport.inject s s.flows.(Arena.flow_wide code)
  | 2 (* Control_tick *) -> Control.tick s
  | 9 (* Ack_arrive *) -> Control.ack_arrive s code
  | 3 (* Tcp_ack_arrive *) -> Transport.ack s code
  | 4 (* Reorder_release *) -> Datapath.reorder_release s code
  | 5 (* Tcp_rto *) -> Transport.rto s code
  | 6 (* Flow_start *) -> Transport.start s s.flows.(Arena.flow_wide code)
  | 7 (* Flow_stop *) -> s.flows.(Arena.flow_wide code).active <- false
  | 8 (* Reclaim_probe *) -> Control.reclaim_probe s code
  | _ -> assert false (* no such tag is ever scheduled *)

(* Profiler attribution, indexed by event tag: the subsystem whose
   handler ran the event. The wheel's pop path is attributed to the
   scheduler by [loop]. *)
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

let[@inline] prof_enter = function Some p -> Obs.Prof.enter p | None -> ()

let[@inline] prof_scheduler = function
  | Some p -> Obs.Prof.leave_silent p Obs.Prof.cat_scheduler
  | None -> ()

(* Allocation-free dispatch: read the minimum in place ([top] and the
   wheel's priority cell instead of [peek]/[pop]'s option-tuple pairs)
   and leave it in the wheel while the handler runs — the handler's
   first [schedule] replaces it via the [pending_drop] flag (see
   [schedule_abs]), and an event that scheduled nothing is dropped
   afterwards. The queue depth is sampled
   before the logical pop. With a profiler, the wheel's pop path
   (find-min scan, migration, the deferred drop) is attributed to
   [cat_scheduler] and each handler to its tag's subsystem; pushes
   from inside handlers count toward the handler's category. Without
   one, each bracket is a never-taken branch. *)
let rec loop s ~duration prof =
  if not (Wheel.is_empty s.q) then begin
    prof_enter prof;
    let ev = Wheel.top s.q in
    let t = s.min_prio.(0) in
    if t <= duration then begin
      let d = Wheel.size s.q in
      if d > s.peak_depth then s.peak_depth <- d;
      prof_scheduler prof;
      s.pending_drop <- true;
      s.now.(0) <- Float.max s.now.(0) t;
      s.events_processed <- s.events_processed + 1;
      prof_enter prof;
      handle s ev;
      (match prof with Some p -> Obs.Prof.leave p prof_tab.(ev land 0xF) | None -> ());
      if s.pending_drop then begin
        s.pending_drop <- false;
        prof_enter prof;
        Wheel.drop s.q;
        prof_scheduler prof
      end;
      (match s.inv with
      | Some chk -> Invariants.check_step chk ~now:s.now.(0) (Lazy.force s.inv_view)
      | None -> ());
      loop s ~duration prof
    end
    else prof_scheduler prof
  end

(* The sink is attached for the event loop only: a caller's ring
   reused by a later run must not feed this run's sink. A
   flight-enabled run that dies dumps the ring before re-raising:
   every escaped exception — invariant violations included — becomes
   a replayable JSONL artifact. *)
let drive s ~duration prof =
  Obs.Flight.attach s.fl ~clock:s.now s.sink;
  Fun.protect
    ~finally:(fun () -> Obs.Flight.detach s.fl)
    (fun () ->
      try loop s ~duration prof
      with e when s.fl_on ->
        let bt = Printexc.get_raw_backtrace () in
        (match Obs.Flight.dump s.fl with
        | Ok (path, n) ->
          Printf.eprintf "[flight] %s: dumped last %d events to %s\n%!"
            (Printexc.to_string e) n path
        | Error msg -> Printf.eprintf "[flight] dump failed: %s\n%!" msg);
        Printexc.raise_with_backtrace e bt)

(* ---------- bootstrap ---------- *)

let reverse_latency g spec =
  match Dijkstra.shortest_path g ~src:spec.dst ~dst:spec.src with
  | None -> 0.005
  | Some (p, _) ->
    List.fold_left
      (fun acc l ->
        acc +. Units.tx_time ~capacity_mbps:(Multigraph.capacity g l) ~bytes:120
        +. 0.001)
      0.0 p.Paths.links

let make_flow ~config g rng now id (spec : flow_spec) =
  if (not (Float.is_finite spec.start_time)) || spec.start_time < 0.0 then
    invalid_arg "Engine.run: start_time must be finite and nonnegative";
  (match spec.stop_time with
  | Some t when (not (Float.is_finite t)) || t < spec.start_time ->
    invalid_arg "Engine.run: stop_time must be finite and not before start_time"
  | Some _ | None -> ());
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
      (if config.dead_route = Heal && spec.transport = Udp && Array.length routes > 0
       then
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
    reverse_latency = reverse_latency g spec;
  }

(* The pre-resolved forwarding plan of one (flow, route). The per-hop
   forwarding decision (destination test, next-hop hash lookup, egress
   resolution) is a pure function of the static route code and the
   arrival node, so it is resolved once here instead of per frame.
   [plan.(hop)] is the action after the packet's hop-th transmission:
   the next link id, [plan_deliver], or [plan_misroute]. The chain
   follows the codec walk itself — under an interface-hash collision
   it can diverge from [route_links], and the plan must reproduce
   exactly where the frame really goes. *)
let resolve_plan g ~egress_by_hash ~my_ifaces first_link code =
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

(* Build the run state and schedule the first events. The order of the
   [Rng.split] calls is the seeding contract (see the interface): one
   per link in link order, the [Heal] jitter, then the per-flow
   workload splits — all in this [let] sequence, before the record is
   built (a record's fields are evaluated in no promised order). *)
let bootstrap ~config ~invariants ~trace ~flight ~link_events ~loss_events
    ~ctrl_events rng g dom flows =
  let n_links = Multigraph.num_links g in
  let n_flows = List.length flows in
  let n_nodes = Multigraph.n_nodes g in
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
  let sink =
    match (trace, recorder) with
    | (Some _ as t), _ -> t
    | None, Some r -> Some (Obs.Recorder.sink r)
    | None, None -> None
  in
  (* Flight recorder: explicit argument, or ambient via EMPOWER_FLIGHT
     (the always-on crash recorder). Like a sink it only observes —
     no randomness, no engine state — so results are bit-identical
     with or without it. *)
  let flight =
    match flight with
    | Some _ -> flight
    | None -> if Obs.Flight.env_enabled () then Some (Obs.Flight.of_env ()) else None
  in
  let fl =
    match flight with Some f -> f | None -> Obs.Flight.create ~capacity:1 ()
  in
  let now = Array.make 1 0.0 in
  if n_flows > Arena.max_flow then
    invalid_arg "Engine.run: too many flows for the event encoding";
  if n_links > Arena.max_link then
    invalid_arg "Engine.run: too many links for the event encoding";
  (* Live link capacities: start from the graph's and follow the
     scheduled capacity-change / failure events. *)
  let caps = Multigraph.capacities g in
  (* Estimator streams are split off [rng] in link-id order by an
     explicit loop: Array.init's evaluation order is unspecified and
     must not decide the seeding. *)
  let est_rngs = Array.init n_links (fun _ -> rng) in
  for l = 0 to n_links - 1 do
    est_rngs.(l) <- Rng.split rng
  done;
  let links =
    Array.init n_links (fun l ->
        {
          queue = Fifo.create ();
          on_air = no_frame;
          air_collided = false;
          air_faulted = false;
          had_traffic = false;
          estimator = Estimator.create est_rngs.(l) ~initial_capacity:caps.(l);
        })
  in
  let jitter = if config.dead_route = Heal then Rng.split rng else rng in
  let flow_states =
    (* Explicit left-to-right construction: [make_flow] consumes rng
       splits (Poisson arrival draws), so evaluation order is part of
       the seeding contract and List.mapi does not guarantee one. *)
    let rev, _ =
      List.fold_left
        (fun (acc, i) spec -> (make_flow ~config g rng now i spec :: acc, i + 1))
        ([], 0) flows
    in
    Array.of_list (List.rev rev)
  in
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
  (* Per-node egress map: interface hash -> outgoing link id toward
     that hash's owner, for the source-route forwarding plans. *)
  let egress_by_hash = Array.make n_nodes [] in
  Array.iter
    (fun (lk : Multigraph.link) ->
      let h = Route_codec.iface_hash ~node:lk.Multigraph.dst ~tech:lk.Multigraph.tech in
      egress_by_hash.(lk.Multigraph.src) <-
        (h, lk.Multigraph.id) :: egress_by_hash.(lk.Multigraph.src))
    (Multigraph.links g);
  let my_ifaces =
    Array.init n_nodes (fun v ->
        List.init (Multigraph.n_techs g) (fun k -> Route_codec.iface_hash ~node:v ~tech:k))
  in
  let plans =
    Array.map
      (fun f ->
        Array.mapi
          (fun ri p ->
            resolve_plan g ~egress_by_hash ~my_ifaces f.route_links.(ri).(0)
              (Route_codec.route_of_path g p))
          f.routes)
      flow_states
  in
  (* Per-run views of the interference domains: [dom_view.(l)] = I_l ∩
     (M ∪ carriers), in domain order, where M is every route's first
     link plus every link of the forwarding plans (which follow the
     codec walk, so they can leave [route_links]); the tick's demand
     fold only needs the carriers — a few links instead of hundreds on
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
  let n_twins = Domain.n_twins dom in
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
  let widest = Array.fold_left (fun m d -> max m (Array.length d)) 0 dom_view in
  let gamma = Array.make n_links 0.0 in
  let pool = Pool.create () in
  (* Invariant checker wiring. *)
  (match inv with
  | None -> ()
  | Some t ->
    let inv_queue_limit =
      (* With a shared byte pool the per-queue frame bound is pool
         capacity in frames, not the (bypassed) legacy limit. *)
      match config.buffers with
      | None -> queue_limit
      | Some b -> max queue_limit ((b.pool_bytes / max 1 config.frame_bytes) + 1)
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
               the extra bucket depth are ~1e-9). *)
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
        iter_queued = (fun l k -> Fifo.iter (fun (p : packet) -> k p.flow) links.(l).queue);
        domain = (fun l -> Domain.domain dom l);
        gamma = (fun l -> gamma.(l));
        link_src = (fun l -> (Multigraph.link g l).Multigraph.src);
        live_frames = (fun () -> Pool.live pool);
        held_frames = (fun () -> pool.Pool.held);
      }
  in
  (* Reorder-release callbacks, one closure pair per flow built once:
     [Reorder.push_cb] fires these for every in-order release and
     declared loss without allocating an event list. *)
  let deliver_cbs =
    Array.map
      (fun f ->
        fun seq bytes ->
          (match inv with
          | Some t -> Invariants.on_release t ~now:now.(0) ~flow:f.id (`Deliver seq)
          | None -> ());
          f.delivered_in_order_bytes <- f.delivered_in_order_bytes + bytes)
      flow_states
  in
  let lost_cbs =
    Array.map
      (fun f ->
        fun seq ->
          (match inv with
          | Some t -> Invariants.on_release t ~now:now.(0) ~flow:f.id (`Lost seq)
          | None -> ());
          f.lost <- f.lost + 1)
      flow_states
  in
  (* Pre-size the event queue from the topology: steady state holds at
     most one Tx_end per link plus a handful of pacing/ack/timer events
     per flow, and the bootstrap enqueues every fault event up front. *)
  let q =
    Wheel.create
      ~capacity:
        (64 + (2 * n_links) + (8 * n_flows) + List.length link_events
        + List.length loss_events + List.length ctrl_events)
      ()
  in
  let f_slots = Arena.Fslots.create () in
  let buf_on = config.buffers <> None in
  let link_src = Array.make (max 1 n_links) 0 in
  let node_ports = Array.make n_nodes 0 in
  if buf_on then
    Array.iter
      (fun (lk : Multigraph.link) ->
        link_src.(lk.Multigraph.id) <- lk.Multigraph.src;
        node_ports.(lk.Multigraph.src) <- node_ports.(lk.Multigraph.src) + 1)
      (Multigraph.links g);
  let obs_on =
    Option.is_some flight
    || match sink with Some s -> Obs.Trace.reads s <> [] | None -> false
  in
  let per_flow v = Array.make (max 1 n_flows) v in
  let s =
    {
      config;
      g;
      dom;
      rng;
      jitter;
      inv;
      inv_view;
      q;
      now;
      push_prio = Wheel.push_prio_cell q;
      min_prio = Wheel.min_prio_cell q;
      pending_drop = false;
      events_processed = 0;
      peak_depth = 0;
      ack_slots = Arena.Slots.create ();
      pkt_slots = Arena.Slots.create ();
      pair_slots = Arena.Slots.create ();
      f_slots;
      f_cell = Arena.Fslots.cell f_slots;
      facc = [| 0.0; 0.0 |];
      arg_cell = [| 0.0 |];
      obs_on;
      fl_on = Option.is_some flight;
      fl;
      fl_cell = Obs.Flight.cell fl;
      sink;
      recorder;
      links;
      caps;
      last_service = Array.make (max 1 n_links) (-1.0);
      dom_view;
      air_busy = Array.make (max 1 n_links) 0;
      (* [ok_odds.(c)] = (1 - collision_prob)^c, the chance that none
         of [c] backlogged contenders picks the same slot: one [**] per
         contender count, not per grant. *)
      ok_odds =
        Array.init (widest + 1) (fun c -> (1.0 -. config.collision_prob) ** float_of_int c);
      tsd_scratch = Array.make (max 1 widest) 0;
      buf_on;
      link_src;
      node_ports;
      port_occ = Array.make (max 1 n_links) 0;
      node_occ = Array.make (if buf_on then n_nodes else 1) 0;
      ecn_marks = 0;
      buffer_peak = 0;
      flows = flow_states;
      plans;
      pool;
      queue_drops = 0;
      window_bits = Array.make (max 1 n_links) 0.0;
      bin_start = per_flow 0.0;
      bin_bits = per_flow 0.0;
      files_head = per_flow 0;
      files_cum = per_flow 0;
      deliver_cbs;
      lost_cbs;
      tokens = per_flow (float_of_int config.frame_bytes);
      tokens_at = per_flow 0.0;
      rto_armed = per_flow Float.nan;
      rto_slot = per_flow (-1);
      gamma;
      gsum = Array.make (max 1 n_twins) 0.0;
      gsum_at = Array.make (max 1 n_twins) (-1);
      gamma_epoch = 0;
      carrier_links;
      priced_links = links_where is_priced;
      demand = Array.make (max 1 n_links) 0.0;
      tick_price = Array.make (if obs_on then n_links else 0) 0.0;
      loss = Array.make n_links 0.0;
      ctrl_drop = [| 0.0 |];
      ctrl_delay = [| 0.0 |];
    }
  in
  (* No event is in flight yet ([pending_drop] is false), so these are
     plain pushes. *)
  Array.iter
    (fun f ->
      schedule_abs s f.spec.start_time (Arena.flow_start f.id);
      match f.spec.stop_time with
      | Some t -> schedule_abs s t (Arena.flow_stop f.id)
      | None -> ())
    flow_states;
  schedule_abs s config.control_period Arena.control_tick;
  let bad_time t = (not (Float.is_finite t)) || t < 0.0 in
  List.iter
    (fun (t, l, c) ->
      if bad_time t || l < 0 || l >= n_links || not (Float.is_finite c) then
        invalid_arg "Engine.run: bad link event";
      s.f_cell.(0) <- c;
      schedule_abs s t (Arena.capacity_change ~link:l ~slot:(Arena.Fslots.put f_slots)))
    link_events;
  List.iter
    (fun (t, l, p) ->
      if bad_time t || l < 0 || l >= n_links || not (Float.is_finite p) || p < 0.0
         || p > 1.0
      then invalid_arg "Engine.run: bad loss event";
      s.f_cell.(0) <- p;
      schedule_abs s t (Arena.loss_change ~link:l ~slot:(Arena.Fslots.put f_slots)))
    loss_events;
  List.iter
    (fun (t, p, d) ->
      if bad_time t
         || (not (Float.is_finite p))
         || p < 0.0 || p > 1.0
         || (not (Float.is_finite d))
         || d < 0.0
      then invalid_arg "Engine.run: bad ctrl event";
      schedule_abs s t
        (Arena.ctrl_change ~slot:(Arena.Slots.put s.pair_slots (p, d))))
    ctrl_events;
  s

let flow_result s ~duration f =
  Datapath.flush_bins_upto s f duration;
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
  }

let run ?(config = default_config) ?invariants ?trace ?flight ?prof
    ?(link_events = []) ?(loss_events = []) ?(ctrl_events = []) rng g dom
    ~flows ~duration =
  (* An infinite horizon never ends (the control tick re-arms itself
     forever), and a NaN or negative one would end before any event. *)
  if (not (Float.is_finite duration)) || duration < 0.0 then
    invalid_arg "Engine.run: duration must be finite and nonnegative";
  let s =
    bootstrap ~config ~invariants ~trace ~flight ~link_events ~loss_events
      ~ctrl_events rng g dom flows
  in
  let wall_start = Sys.time () in
  drive s ~duration prof;
  let wall_s = Sys.time () -. wall_start in
  s.now.(0) <- duration;
  (match s.recorder with Some r -> Obs.Recorder.flush r ~now:duration | None -> ());
  {
    flows = Array.map (flow_result s ~duration) s.flows;
    duration;
    queue_drops = s.queue_drops;
    ecn_marks = s.ecn_marks;
    buffer_peak_bytes = s.buffer_peak;
    events_processed = s.events_processed;
    perf =
      {
        wall_s;
        events_per_s =
          (if wall_s > 0.0 then float_of_int s.events_processed /. wall_s else 0.0);
        wall_per_sim_s = (if duration > 0.0 then wall_s /. duration else 0.0);
        peak_queue_depth = s.peak_depth;
      };
  }
