(* Seeded chaos runs: a Fault.Gen plan against the testbed scenario,
   with recovery metrics extracted from a private Recorder. *)

type flow_report = {
  flow : int;
  received_bytes : int;
  goodput_mbps : float;
  recovery_s : float;
  dip_depth : float;
  dip_area : float;
  reroutes : int;
  detect_s : float;
}

type report = {
  seed : int;
  intensity : Fault.Gen.intensity;
  duration : float;
  recovery : bool;
  plan : Fault.plan;
  result : Engine.result;
  fault_events : int;
  flows : flow_report list;
}

(* Recovery needs reclaimable routes: a fully failed route must keep
   probing after it heals or the goodput would never come back. *)
let config = { Engine.default_config with Engine.dead_route = Engine.Probe_floor }

(* The scenario flow runs 0 -> 12 on the testbed; severing plans pin
   the victim to the destination so a node crash is guaranteed to take
   down every route of the flow at once. *)
let flow_src = 0
let flow_dst = 12

let network () = Runner.network (Testbed.generate (Rng.create 4242)) Schemes.Empower

let plan ?intensity ?clear_by (net : Empower.network) ~seed ~duration =
  let victim =
    match intensity with Some Fault.Gen.Severing -> Some flow_dst | _ -> None
  in
  Fault.Gen.plan ?intensity ?clear_by ?victim
    (Rng.split (Rng.create seed))
    net.Empower.g ~duration

let kinds =
  [ "delivery"; "rate"; "link"; "loss"; "ctrl"; "route_dead"; "route_probe";
    "route_restored" ]

let run ?trace ?flight ?intensity ?(recovery = false) ?(duration = 20.0) ~seed
    () =
  let net = network () in
  let flow =
    let routes, rates =
      Runner.routes_and_rates net Schemes.Empower ~src:flow_src ~dst:flow_dst
    in
    if routes = [] then invalid_arg "Chaos.run: no route 0 -> 12";
    Runner.flow_spec ~src:flow_src ~dst:flow_dst (routes, rates)
  in
  (* One seed pins the whole run: the plan draws from a split of the
     master stream, the engine consumes the rest of it. *)
  let master = Rng.create seed in
  let plan_rng = Rng.split master in
  let intensity =
    match intensity with Some i -> i | None -> Fault.Gen.Moderate
  in
  let victim =
    match intensity with Fault.Gen.Severing -> Some flow_dst | _ -> None
  in
  let plan = Fault.Gen.plan ~intensity ?victim plan_rng net.Empower.g ~duration in
  let compiled = Fault.compile net.Empower.g plan in
  let config =
    if recovery then { config with Engine.dead_route = Engine.Heal } else config
  in
  (* The private recorder computes the recovery metrics: goodput bins
     from deliveries, reroutes from rate updates, the fault span and
     detection latencies from fault and recovery rows. *)
  let result, reg =
    Runner.with_recorder ?trace ~kinds
      ~domain_of:(Domain.domain net.Empower.dom) ~duration (fun sink ->
        Engine.run ~config ~trace:sink ?flight
          ~link_events:compiled.Fault.link_events
          ~loss_events:compiled.Fault.loss_events
          ~ctrl_events:compiled.Fault.ctrl_events master net.Empower.g
          net.Empower.dom ~flows:[ flow ] ~duration)
  in
  let gauge name = Obs.Metrics.Gauge.value (Obs.Metrics.gauge reg name) in
  let counter name = Obs.Metrics.Counter.value (Obs.Metrics.counter reg name) in
  let flows =
    Array.to_list
      (Array.mapi
         (fun fid (fr : Engine.flow_result) ->
           let m name = Printf.sprintf "flow.%d.%s" fid name in
           {
             flow = fid;
             received_bytes = fr.Engine.received_bytes;
             goodput_mbps =
               float_of_int fr.Engine.received_bytes *. 8e-6 /. duration;
             recovery_s = gauge (m "fault.recovery_s");
             dip_depth = gauge (m "fault.dip_depth");
             dip_area = gauge (m "fault.dip_area");
             reroutes = counter (m "reroutes");
             detect_s = gauge (m "fault.detect_s");
           })
         result.Engine.flows)
  in
  {
    seed;
    intensity;
    duration;
    recovery;
    plan;
    result;
    fault_events = counter "fault.events";
    flows;
  }

let sweep ?intensity ?recovery ?duration ?jobs seeds =
  (* Each seed is an independent pure run (the network is rebuilt
     inside the job); reports come back in the seeds' order, so a
     sweep is bit-identical for any job count. *)
  Exec.map ?jobs
    (fun seed -> run ?intensity ?recovery ?duration ~seed ())
    seeds

let to_json r =
  let open Obs.Json in
  Obj
    [
      ("scenario", String "chaos");
      ("seed", Int r.seed);
      ("intensity", String (Fault.Gen.intensity_name r.intensity));
      ("duration", Float r.duration);
      ("recovery", Bool r.recovery);
      ("fault_events", Int r.fault_events);
      ("queue_drops", Int r.result.Engine.queue_drops);
      ("events_processed", Int r.result.Engine.events_processed);
      ("plan", Fault.to_json r.plan);
      ( "flows",
        List
          (List.map
             (fun f ->
               Obj
                 [
                   ("flow", Int f.flow);
                   ("received_bytes", Int f.received_bytes);
                   ("goodput_mbps", Float f.goodput_mbps);
                   ("recovery_s", Float f.recovery_s);
                   ("dip_depth", Float f.dip_depth);
                   ("dip_area", Float f.dip_area);
                   ("reroutes", Int f.reroutes);
                   ("detect_s", Float f.detect_s);
                 ])
             r.flows) );
    ]

let sweep_json reports =
  let open Obs.Json in
  Obj
    [
      ("scenario", String "chaos-sweep");
      ("runs", Int (List.length reports));
      ("reports", List (List.map to_json reports));
    ]

let print ?(out = stdout) r =
  let p fmt = Printf.fprintf out fmt in
  p "--- chaos: seed %d, intensity %s%s, %.1f s, %d plan actions ---\n" r.seed
    (Fault.Gen.intensity_name r.intensity)
    (if r.recovery then " (recovery on)" else "")
    r.duration (List.length r.plan);
  p "fault boundary events: %d; queue drops: %d; engine events: %d\n"
    r.fault_events r.result.Engine.queue_drops r.result.Engine.events_processed;
  List.iter
    (fun f ->
      p
        "flow %d: %.3f Mbit/s (%d bytes), dip %.3f Mbit/s deep / %.3f Mbit·s, \
         recovery %s, %d reroutes%s\n"
        f.flow f.goodput_mbps f.received_bytes f.dip_depth f.dip_area
        (if f.recovery_s < 0.0 then "never"
         else Printf.sprintf "%.3f s" f.recovery_s)
        f.reroutes
        (if f.detect_s > 0.0 then Printf.sprintf ", detected in %.3f s" f.detect_s
         else ""))
    r.flows
