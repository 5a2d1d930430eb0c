type network = {
  g : Multigraph.t;
  dom : Domain.t;
}

let of_instance inst scenario =
  let g = Builder.graph inst scenario in
  { g; dom = Domain.of_instance inst scenario g }

let of_edges ~n_nodes ~n_techs edges =
  let g = Multigraph.create ~n_nodes ~n_techs ~edges in
  { g; dom = Domain.single_domain_per_tech g }

type plan = {
  src : int;
  dst : int;
  combination : Multipath.combination;
}

let plan ?(n = 5) ?(csc = true) net ~src ~dst =
  { src; dst; combination = Multipath.find ~n ~csc net.g net.dom ~src ~dst }

type allocation = {
  plans : plan array;
  flow_rates : float array;
  route_rates : float array array;
  cc : Cc_result.t;
}

let allocate ?n ?(delta = 0.0) ?(slots = 3000) ?utility net ~flows =
  let plans =
    Array.of_list (List.map (fun (src, dst) -> plan ?n net ~src ~dst) flows)
  in
  let flow_routes =
    Array.to_list (Array.map (fun p -> Multipath.routes p.combination) plans)
  in
  let problem = Problem.make ~delta ?utility net.g net.dom ~flows:flow_routes in
  let x_init =
    Array.of_list
      (List.concat_map
         (fun p -> List.map snd p.combination.Multipath.paths)
         (Array.to_list plans))
  in
  let cc = Multi_cc.solve ~x_init ~slots problem in
  (* Slice the flat rate vector back into per-flow arrays. *)
  let route_rates = Array.make (Array.length plans) [||] in
  let idx = ref 0 in
  Array.iteri
    (fun f p ->
      let k = List.length p.combination.Multipath.paths in
      route_rates.(f) <- Array.sub cc.Cc_result.rates !idx k;
      idx := !idx + k)
    plans;
  { plans; flow_rates = cc.Cc_result.flow_rates; route_rates; cc }

let simulate ?config ?invariants ?trace ?faults ?(seed = 0) net ~flows ~duration
    =
  let link_events, loss_events, ctrl_events =
    match faults with
    | None -> ([], [], [])
    | Some plan ->
      let c = Fault.compile net.g plan in
      (c.Fault.link_events, c.Fault.loss_events, c.Fault.ctrl_events)
  in
  Engine.run ?config ?invariants ?trace ~link_events ~loss_events ~ctrl_events
    (Rng.create seed) net.g net.dom ~flows ~duration

let flow_specs_of_allocation ?(workload = Workload.Saturated)
    ?(transport = Engine.Udp) alloc =
  Array.to_list alloc.plans
  |> List.filter_map (fun p ->
         match Multipath.routes p.combination with
         | [] -> None
         | routes ->
           Some
             {
               Engine.src = p.src;
               dst = p.dst;
               routes;
               init_rates = List.map snd p.combination.Multipath.paths;
               workload;
               transport;
               tcp_params = None;
               start_time = 0.0;
               stop_time = None;
             })
