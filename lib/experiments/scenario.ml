(* Declarative churn scenarios and degradation scorecards. See
   scenario.mli for the schema, determinism contract and metric
   definitions. *)

module J = Obs.Json

type topology_kind = Testbed | Residential | Enterprise

let topology_kind_name = function
  | Testbed -> "testbed"
  | Residential -> "residential"
  | Enterprise -> "enterprise"

let topology_kind_of_name = function
  | "testbed" -> Some Testbed
  | "residential" -> Some Residential
  | "enterprise" -> Some Enterprise
  | _ -> None

type churn =
  | Generate of { intensity : Fault.Gen.intensity; protect_endpoints : bool }
  | Plan of Fault.plan

type slo = { availability_frac : float; min_availability : float }

type spec = {
  name : string;
  description : string;
  seed : int;
  duration : float;
  topology : topology_kind;
  topology_seed : int;
  devices : Device.spec list;
  flows : (int * int) list;
  churn : churn;
  recovery : bool;
  slo : slo;
}

(* ---------------------------------------------------------------- *)
(* Spec codec                                                        *)

let ( let* ) = Result.bind

let device_of_json j =
  match j with
  | J.Obj _ ->
      let* node = J.int_field "node" j in
      let* cls_s = J.string_field "class" j in
      let* cls =
        match Device.cls_of_name cls_s with
        | Some c -> Ok c
        | None -> Error (Printf.sprintf "unknown device class %S" cls_s)
      in
      let* panel =
        match J.member "panel" j with
        | None -> Ok None
        | Some _ -> Result.map Option.some (J.int_field "panel" j)
      in
      Ok { Device.node; cls; panel }
  | _ -> Error "expected object"

let flow_of_json j =
  match j with
  | J.Obj _ ->
      let* src = J.int_field "src" j in
      let* dst = J.int_field "dst" j in
      if src < 0 || dst < 0 then Error "flow: negative node id"
      else if src = dst then
        Error (Printf.sprintf "flow %d -> %d: src = dst" src dst)
      else Ok (src, dst)
  | _ -> Error "expected object"

let intensity_of_json j =
  let* name = J.string_field "intensity" j in
  match Fault.Gen.intensity_of_name name with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "unknown intensity %S" name)

let churn_of_json j =
  match j with
  | J.Obj _ -> (
      match (J.member "generate" j, J.member "plan" j) with
      | Some g, None ->
          let* intensity = intensity_of_json g in
          let* protect_endpoints =
            match J.member "protect_endpoints" g with
            | None -> Ok true
            | Some _ -> J.bool_field "protect_endpoints" g
          in
          Ok (Generate { intensity; protect_endpoints })
      | None, Some p ->
          let* plan = Fault.of_json p in
          Ok (Plan plan)
      | Some _, Some _ -> Error "churn: both \"generate\" and \"plan\" given"
      | None, None -> Error "churn: expected \"generate\" or \"plan\"")
  | _ -> Error "churn: expected object"

let frac_ok f = f >= 0.0 && f <= 1.0

(* The fields a spec shares with the scorecard of its run, validated
   alike. The two documents spell the flows and the churn differently,
   so the caller decodes those. *)
let spec_fields j ~flows ~churn =
  let* name = J.string_field "name" j in
  let* description = J.string_field "description" j in
  let* seed = J.int_field "seed" j in
  let* duration = J.float_field "duration" j in
  let* () =
    if duration > 0.0 then Ok () else Error "field \"duration\": must be > 0"
  in
  let* topo = J.obj_field "topology" j in
  let* kind_s = J.string_field "kind" topo in
  let* topology =
    match topology_kind_of_name kind_s with
    | Some k -> Ok k
    | None -> Error (Printf.sprintf "unknown topology kind %S" kind_s)
  in
  let* topology_seed = J.int_field "seed" topo in
  let* devices = J.list_field ~default:[] "devices" device_of_json j in
  let* () =
    let nodes = List.map (fun d -> d.Device.node) devices in
    let sorted = List.sort_uniq compare nodes in
    if List.length sorted = List.length nodes then Ok ()
    else Error "devices: duplicate node"
  in
  let* () = if flows = [] then Error "field \"flows\": empty" else Ok () in
  let* recovery = J.bool_field "recovery" j in
  let* slo_j = J.obj_field "slo" j in
  let* availability_frac = J.float_field "availability_frac" slo_j in
  let* min_availability = J.float_field "min_availability" slo_j in
  let* () =
    if frac_ok availability_frac && frac_ok min_availability then Ok ()
    else Error "slo fractions must be in [0,1]"
  in
  Ok
    {
      name;
      description;
      seed;
      duration;
      topology;
      topology_seed;
      devices;
      flows;
      churn;
      recovery;
      slo = { availability_frac; min_availability };
    }

let spec_of_json j =
  match j with
  | J.Obj _ ->
      let* () =
        let* version = J.field "version" j in
        if version = J.Int 1 then Ok () else Error "unsupported scenario version"
      in
      let* flows = J.list_field "flows" flow_of_json j in
      let* churn = Result.bind (J.field "churn" j) churn_of_json in
      spec_fields j ~flows ~churn
  | _ -> Error "scenario: expected object"

let load path =
  let* j = J.of_file path in
  Result.map_error (fun e -> path ^ ": " ^ e) (spec_of_json j)

let catalog dir =
  match Sys.readdir dir with
  | exception Sys_error msg -> Error msg
  | entries ->
      Ok
        (List.sort compare
           (List.filter_map
              (fun e ->
                if Filename.check_suffix e ".json" then
                  Some (Filename.chop_suffix e ".json", Filename.concat dir e)
                else None)
              (Array.to_list entries)))

(* ---------------------------------------------------------------- *)
(* Runner                                                            *)

type flow_score = {
  flow : int;
  src : int;
  dst : int;
  baseline_mbps : float;
  goodput_mbps : float;
  availability : float;
  below_slo_s : float;
  reroutes : int;
  route_deaths : int;
  route_restores : int;
  outage_s : float;
  detect_s : float;
  dip_depth : float;
  dip_area : float;
  recovery_s : float;
}

type event_score = {
  op : string;
  at : float;
  clear : float;
  dip_mbps : float;
  recover_s : float;
}

type scorecard = {
  spec : spec;
  plan : Fault.plan;
  fault_events : int;
  queue_drops : int;
  events_processed : int;
  route_deaths : int;
  probes : int;
  flows : flow_score list;
  events : event_score list;
  min_availability_measured : float;
  slo_met : bool;
}

(* Goodput bins stamped inside (warmup, duration] feed the
   availability metrics; the first bins are excluded because flows
   start from zero rate regardless of churn. *)
let warmup = 2.0
let recover_frac = 0.9

let instance spec =
  let rng = Rng.create spec.topology_seed in
  match spec.topology with
  | Testbed -> Testbed.generate rng
  | Residential -> Residential.generate rng
  | Enterprise -> Enterprise.generate rng

(* The churn run's private recorder reads the rows behind the
   scorecard's counters: reroutes (rate updates), the fault span (link,
   loss and control-plane changes) and the recovery rows. Goodput bins
   come from the engine itself. *)
let kinds =
  [ "rate"; "link"; "loss"; "ctrl"; "route_dead"; "route_probe"; "route_restored" ]

(* The engine's whole-second bins inside the measure window. A second
   in which a flow delivers nothing is a 0 Mbit/s bin: an outage
   counts against availability. *)
let measured pts = List.filter (fun (t, _) -> t > warmup) pts

let run_with_result ?trace ?flight spec =
  let inst0 = instance spec in
  (match Device.validate inst0 spec.devices with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Scenario.run: " ^ msg));
  let inst = Device.apply inst0 spec.devices in
  let net = Runner.network inst Schemes.Empower in
  let n = Builder.node_count inst in
  List.iter
    (fun (src, dst) ->
      if src < 0 || src >= n || dst < 0 || dst >= n then
        invalid_arg
          (Printf.sprintf "Scenario.run: flow %d -> %d: node out of range" src
             dst);
      if src = dst then
        invalid_arg (Printf.sprintf "Scenario.run: flow %d -> %d: src = dst" src dst);
      List.iter
        (fun e ->
          if not (Device.originates spec.devices e) then
            invalid_arg
              (Printf.sprintf
                 "Scenario.run: flow %d -> %d: node %d is relay-only" src dst e))
        [ src; dst ])
    spec.flows;
  let flow_specs =
    List.map
      (fun (src, dst) ->
        let routes, rates =
          Runner.routes_and_rates net Schemes.Empower ~src ~dst
        in
        if routes = [] then
          invalid_arg (Printf.sprintf "Scenario.run: no route %d -> %d" src dst);
        Runner.flow_spec ~src ~dst (routes, rates))
      spec.flows
  in
  (* One seed pins everything: the plan draws from a split of the
     master stream and each engine run consumes an identical
     remainder, so baseline and churn runs differ only in the
     injected schedules. *)
  let master () =
    let m = Rng.create spec.seed in
    let split = Rng.split m in
    (m, split)
  in
  let m_churn, plan_rng = master () in
  let m_base, _ = master () in
  let plan =
    match spec.churn with
    | Plan p ->
        (match Fault.validate net.Empower.g p with
        | Ok () -> ()
        | Error msg -> invalid_arg ("Scenario.run: plan: " ^ msg));
        Fault.normalize p
    | Generate { intensity; protect_endpoints } ->
        let protect =
          if protect_endpoints then
            List.sort_uniq compare
              (List.concat_map (fun (s, d) -> [ s; d ]) spec.flows)
          else []
        in
        Fault.normalize
          (Fault.Gen.plan ~intensity ~protect plan_rng net.Empower.g
             ~duration:spec.duration)
  in
  let compiled = Fault.compile net.Empower.g plan in
  let config =
    {
      Engine.default_config with
      Engine.dead_route = (if spec.recovery then Engine.Heal else Engine.Probe_floor);
    }
  in
  let dom = net.Empower.dom in
  (* Fault-free baseline: unobserved, no fault schedules. *)
  let result_b =
    Engine.run ~config ~trace:Obs.Trace.none m_base net.Empower.g dom
      ~flows:flow_specs ~duration:spec.duration
  in
  (* Churn run: the private recorder computes the scorecard's
     counters, beside the --metrics registry's recorder and the
     caller's sink. *)
  let reg = Obs.Metrics.create () in
  let recorder = Obs.Recorder.create reg in
  let global =
    Option.map (Obs.Recorder.create ~domain_of:(Domain.domain dom)) (Obs.Runtime.metrics ())
  in
  let sink =
    let s = Obs.Recorder.sink ~kinds recorder in
    let s =
      match global with Some r -> Obs.Trace.tee s (Obs.Recorder.sink r) | None -> s
    in
    match trace with Some user -> Obs.Trace.tee s user | None -> s
  in
  let result =
    Engine.run ~config ~trace:sink ?flight ~link_events:compiled.Fault.link_events
      ~loss_events:compiled.Fault.loss_events ~ctrl_events:compiled.Fault.ctrl_events
      m_churn net.Empower.g dom ~flows:flow_specs ~duration:spec.duration
  in
  Obs.Recorder.flush recorder ~now:spec.duration;
  Option.iter (fun r -> Obs.Recorder.flush r ~now:spec.duration) global;
  let gauge name = Obs.Metrics.Gauge.value (Obs.Metrics.gauge reg name) in
  let counter name = Obs.Metrics.Counter.value (Obs.Metrics.counter reg name) in
  let fault_span =
    if counter "fault.events" > 0 then
      Some (gauge "fault.first_s", gauge "fault.last_s")
    else None
  in
  (* Per-flow baselines, churn-run series and measured bins, by flow
     index. *)
  let per_flow =
    Array.mapi
      (fun fid (fr : Engine.flow_result) ->
        let base_bins = measured result_b.Engine.flows.(fid).Engine.goodput_series in
        let baseline =
          match base_bins with
          | [] -> 0.0
          | _ ->
              List.fold_left (fun acc (_, v) -> acc +. v) 0.0 base_bins
              /. float_of_int (List.length base_bins)
        in
        let pts = fr.Engine.goodput_series in
        (baseline, pts, measured pts))
      result.Engine.flows
  in
  let flows =
    List.mapi
      (fun fid (src, dst) ->
        let baseline, pts, bins = per_flow.(fid) in
        let n_bins = List.length bins in
        let thr = spec.slo.availability_frac *. baseline in
        let n_ok =
          List.length (List.filter (fun (_, v) -> v >= thr) bins)
        in
        let availability =
          if n_bins = 0 then 1.0
          else float_of_int n_ok /. float_of_int n_bins
        in
        let fr = result.Engine.flows.(fid) in
        let m name = Printf.sprintf "flow.%d.%s" fid name in
        let dip =
          Option.bind fault_span (fun (fault_first, fault_last) ->
              Obs.Recorder.degradation ~fault_first ~fault_last pts)
        in
        let dip_field f = match dip with Some d -> f d | None -> 0.0 in
        {
          flow = fid;
          src;
          dst;
          baseline_mbps = baseline;
          goodput_mbps =
            float_of_int fr.Engine.received_bytes *. 8e-6 /. spec.duration;
          availability;
          below_slo_s = float_of_int (n_bins - n_ok);
          reroutes = counter (m "reroutes");
          route_deaths = counter (m "route_deaths");
          route_restores = counter (m "route_restores");
          outage_s = gauge (m "fault.outage_s");
          detect_s = gauge (m "fault.detect_s");
          dip_depth = dip_field (fun d -> d.Obs.Recorder.dip_depth);
          dip_area = dip_field (fun d -> d.Obs.Recorder.dip_area);
          recovery_s = dip_field (fun d -> d.Obs.Recorder.recovery_s);
        })
      spec.flows
  in
  (* Per-churn-event dip / recovery, worst flow: the dip window is the
     action's [start, end] span plus the following bin (bins are
     end-stamped), recovery scans forward from the action's end. *)
  let events =
    List.map
      (fun a ->
        let at = Fault.start_time a and clear = Fault.end_time a in
        let dip = ref 0.0 and recover = ref 0.0 and never = ref false in
        Array.iter
          (fun (baseline, _, bins) ->
            let win =
              List.filter (fun (t, _) -> t >= at && t <= clear +. 1.0) bins
            in
            (match win with
            | [] -> ()
            | _ ->
                let mn =
                  List.fold_left
                    (fun acc (_, v) -> Float.min acc v)
                    infinity win
                in
                dip := Float.max !dip (Float.max 0.0 (baseline -. mn)));
            let thr = recover_frac *. baseline in
            match
              List.find_opt (fun (t, v) -> t >= clear && v >= thr) bins
            with
            | Some (t, _) ->
                recover := Float.max !recover (Float.max 0.0 (t -. clear))
            | None -> never := true)
          per_flow;
        {
          op = Fault.op_name a;
          at;
          clear;
          dip_mbps = !dip;
          recover_s = (if !never then -1.0 else !recover);
        })
      plan
  in
  let min_availability_measured =
    List.fold_left (fun acc f -> Float.min acc f.availability) 1.0 flows
  in
  ( {
      spec;
      plan;
      fault_events = counter "fault.events";
      queue_drops = result.Engine.queue_drops;
      events_processed = result.Engine.events_processed;
      route_deaths = counter "recovery.route_deaths";
      probes = counter "recovery.probes";
      flows;
      events;
      min_availability_measured;
      slo_met = min_availability_measured >= spec.slo.min_availability;
    },
    result )

let run ?trace ?flight spec = fst (run_with_result ?trace ?flight spec)

let run_all ?jobs specs = Exec.map ?jobs (fun spec -> run spec) specs

(* ---------------------------------------------------------------- *)
(* Rendering                                                         *)

let event_score_to_json e =
  J.Obj
    [
      ("op", J.String e.op);
      ("at", J.Float e.at);
      ("clear", J.Float e.clear);
      ("dip_mbps", J.Float e.dip_mbps);
      ("recover_s", J.Float e.recover_s);
    ]

let to_json sc =
  let open J in
  let spec = sc.spec in
  Obj
    [
      ("figure", String "scenario");
      ("name", String spec.name);
      ("description", String spec.description);
      ("seed", Int spec.seed);
      ("duration", Float spec.duration);
      ( "topology",
        Obj
          [
            ("kind", String (topology_kind_name spec.topology));
            ("seed", Int spec.topology_seed);
          ] );
      ( "devices",
        List
          (List.map
             (fun (d : Device.spec) ->
               Obj
                 ([
                    ("node", Int d.Device.node);
                    ("class", String (Device.cls_name d.Device.cls));
                  ]
                 @
                 match d.Device.panel with
                 | Some p -> [ ("panel", Int p) ]
                 | None -> []))
             spec.devices) );
      ( "churn",
        match spec.churn with
        | Generate { intensity; protect_endpoints } ->
            Obj
              [
                ("intensity", String (Fault.Gen.intensity_name intensity));
                ("protect_endpoints", Bool protect_endpoints);
              ]
        | Plan _ -> Obj [ ("explicit", Bool true) ] );
      ("recovery", Bool spec.recovery);
      ( "slo",
        Obj
          [
            ("availability_frac", Float spec.slo.availability_frac);
            ("min_availability", Float spec.slo.min_availability);
          ] );
      ("slo_met", Bool sc.slo_met);
      ("min_availability", Float sc.min_availability_measured);
      ("plan_actions", Int (List.length sc.plan));
      ("fault_events", Int sc.fault_events);
      ("queue_drops", Int sc.queue_drops);
      ("events_processed", Int sc.events_processed);
      ("route_deaths", Int sc.route_deaths);
      ("probes", Int sc.probes);
      ("plan", Fault.to_json sc.plan);
      ( "flows",
        List
          (List.map
             (fun f ->
               Obj
                 [
                   ("flow", Int f.flow);
                   ("src", Int f.src);
                   ("dst", Int f.dst);
                   ("baseline_mbps", Float f.baseline_mbps);
                   ("goodput_mbps", Float f.goodput_mbps);
                   ("availability", Float f.availability);
                   ("below_slo_s", Float f.below_slo_s);
                   ("reroutes", Int f.reroutes);
                   ("route_deaths", Int f.route_deaths);
                   ("route_restores", Int f.route_restores);
                   ("outage_s", Float f.outage_s);
                   ("detect_s", Float f.detect_s);
                   ("dip_depth", Float f.dip_depth);
                   ("dip_area", Float f.dip_area);
                   ("recovery_s", Float f.recovery_s);
                 ])
             sc.flows) );
      ("events", List (List.map event_score_to_json sc.events));
    ]

let flow_score_of_json j =
  let* flow = J.int_field "flow" j in
  let* src = J.int_field "src" j in
  let* dst = J.int_field "dst" j in
  let* baseline_mbps = J.float_field "baseline_mbps" j in
  let* goodput_mbps = J.float_field "goodput_mbps" j in
  let* availability = J.float_field "availability" j in
  let* below_slo_s = J.float_field "below_slo_s" j in
  let* reroutes = J.int_field "reroutes" j in
  let* route_deaths = J.int_field "route_deaths" j in
  let* route_restores = J.int_field "route_restores" j in
  let* outage_s = J.float_field "outage_s" j in
  let* detect_s = J.float_field "detect_s" j in
  let* dip_depth = J.float_field "dip_depth" j in
  let* dip_area = J.float_field "dip_area" j in
  let* recovery_s = J.float_field "recovery_s" j in
  Ok
    {
      flow; src; dst; baseline_mbps; goodput_mbps; availability; below_slo_s;
      reroutes; route_deaths; route_restores; outage_s; detect_s; dip_depth;
      dip_area; recovery_s;
    }

let event_score_of_json j =
  let* op = J.string_field "op" j in
  let* at = J.float_field "at" j in
  let* clear = J.float_field "clear" j in
  let* dip_mbps = J.float_field "dip_mbps" j in
  let* recover_s = J.float_field "recover_s" j in
  Ok { op; at; clear; dip_mbps; recover_s }

(* ["plan_actions"] is the length of ["plan"] and is not read. *)
let of_json j =
  let* plan = Result.bind (J.field "plan" j) Fault.of_json in
  let* flows = J.list_field "flows" flow_score_of_json j in
  let* churn =
    let* c = J.obj_field "churn" j in
    if J.member "explicit" c = Some (J.Bool true) then Ok (Plan plan)
    else
      let* intensity = intensity_of_json c in
      let* protect_endpoints = J.bool_field "protect_endpoints" c in
      Ok (Generate { intensity; protect_endpoints })
  in
  let* spec =
    spec_fields j ~flows:(List.map (fun f -> (f.src, f.dst)) flows) ~churn
  in
  let* slo_met = J.bool_field "slo_met" j in
  let* min_availability_measured = J.float_field "min_availability" j in
  let* fault_events = J.int_field "fault_events" j in
  let* queue_drops = J.int_field "queue_drops" j in
  let* events_processed = J.int_field "events_processed" j in
  let* route_deaths = J.int_field "route_deaths" j in
  let* probes = J.int_field "probes" j in
  let* events = J.list_field "events" event_score_of_json j in
  Ok
    {
      spec; plan; fault_events; queue_drops; events_processed; route_deaths;
      probes; flows; events; min_availability_measured; slo_met;
    }

let print ?(out = stdout) sc =
  let p fmt = Printf.fprintf out fmt in
  let spec = sc.spec in
  p "=== scenario: %s (seed %d, %.1f s, %s, recovery %s) ===\n" spec.name
    spec.seed spec.duration
    (topology_kind_name spec.topology)
    (if spec.recovery then "on" else "off");
  p "%s\n" spec.description;
  (match spec.churn with
  | Generate { intensity; protect_endpoints } ->
      p "churn: generated (%s%s), %d actions\n"
        (Fault.Gen.intensity_name intensity)
        (if protect_endpoints then ", endpoints protected" else "")
        (List.length sc.plan)
  | Plan _ -> p "churn: explicit plan, %d actions\n" (List.length sc.plan));
  p "fault boundary events: %d; engine events: %d; queue drops: %d\n"
    sc.fault_events sc.events_processed sc.queue_drops;
  p "recovery: %d route deaths, %d probes\n" sc.route_deaths sc.probes;
  List.iter
    (fun f ->
      p
        "flow %d (%d -> %d): baseline %.3f Mbit/s, run %.3f Mbit/s, \
         availability %.1f%% (%.0f s below SLO), %d deaths / %d restores, \
         outage %.3f s, %d reroutes\n"
        f.flow f.src f.dst f.baseline_mbps f.goodput_mbps
        (100.0 *. f.availability) f.below_slo_s f.route_deaths
        f.route_restores f.outage_s f.reroutes;
      p "  dip %.3f Mbit/s deep / %.3f Mbit·s, recovery %s%s\n" f.dip_depth
        f.dip_area
        (if f.recovery_s < 0.0 then "never"
         else Printf.sprintf "%.3f s" f.recovery_s)
        (if f.detect_s > 0.0 then Printf.sprintf ", detected in %.3f s" f.detect_s
         else ""))
    sc.flows;
  if sc.events <> [] then begin
    p "%-16s %8s %8s %10s %10s\n" "event" "at" "clear" "dip_mbps" "recover_s";
    List.iter
      (fun e ->
        p "%-16s %8.2f %8.2f %10.3f %10s\n" e.op e.at e.clear e.dip_mbps
          (if e.recover_s < 0.0 then "never"
           else Printf.sprintf "%.2f" e.recover_s))
      sc.events
  end;
  p "SLO: min availability %.3f (threshold %.3f) -> %s\n"
    sc.min_availability_measured spec.slo.min_availability
    (if sc.slo_met then "PASS" else "FAIL")
