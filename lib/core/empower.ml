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

let plan net ~src ~dst =
  { src; dst; combination = Multipath.find ~n:5 ~csc:true net.g net.dom ~src ~dst }

type allocation = {
  plans : plan array;
  flow_rates : float array;
  route_rates : float array array;
  cc : Cc_result.t;
}

let allocate ?(delta = 0.0) ?(slots = 3000) net ~flows =
  let plans =
    Array.of_list (List.map (fun (src, dst) -> plan net ~src ~dst) flows)
  in
  let flow_routes =
    Array.to_list (Array.map (fun p -> Multipath.routes p.combination) plans)
  in
  let problem = Problem.make ~delta net.g net.dom ~flows:flow_routes in
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

let simulate ?config ?invariants ?(seed = 0) net ~flows ~duration =
  Engine.run ?config ?invariants (Rng.create seed) net.g net.dom ~flows ~duration

let flow_specs_of_allocation alloc =
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
               workload = Workload.Saturated;
               transport = Engine.Udp;
               tcp_params = None;
               start_time = 0.0;
               stop_time = None;
             })
