let network inst scheme = Empower.of_instance inst (Schemes.scenario scheme)

let routes_and_rates ?opts (net : Empower.network) scheme ~src ~dst =
  let routes = Schemes.routes_for ?opts scheme net.Empower.g net.Empower.dom ~src ~dst in
  let rates =
    List.map (fun p -> Update.path_rate net.Empower.g net.Empower.dom p) routes
  in
  (routes, rates)

let flow_spec ?(workload = Workload.Saturated) ?(transport = Engine.Udp)
    ?tcp_params ~src ~dst (routes, init_rates) =
  {
    Engine.src;
    dst;
    routes;
    init_rates;
    workload;
    transport;
    tcp_params;
    start_time = 0.0;
    stop_time = None;
  }

let goodput_stats (fr : Engine.flow_result) ~last_seconds ~duration =
  let lo = duration -. float_of_int last_seconds in
  let xs =
    List.filter_map
      (fun (t, gp) -> if t > lo then Some gp else None)
      fr.Engine.goodput_series
  in
  (Stats.mean xs, Stats.stddev xs)
