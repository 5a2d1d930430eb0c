type t = {
  g : Multigraph.t;
  dom : Domain.t;
  d : float array;
  routes : Paths.t array;
  flow_of : int array;
  flow_routes : int list array;
  delta : float;
  external_airtime : float array;
}

let make ?(delta = 0.0) ?d ?external_airtime g dom ~flows =
  if delta < 0.0 || delta >= 1.0 then invalid_arg "Problem.make: delta outside [0,1)";
  let n_links = Multigraph.num_links g in
  let d =
    match d with
    | Some d ->
      if Array.length d <> n_links then invalid_arg "Problem.make: d length mismatch";
      d
    | None -> Array.init n_links (fun l -> Multigraph.d g l)
  in
  let external_airtime =
    match external_airtime with
    | Some a ->
      if Array.length a <> n_links then
        invalid_arg "Problem.make: external_airtime length mismatch";
      a
    | None -> Array.make n_links 0.0
  in
  let routes = Array.of_list (List.concat flows) in
  Array.iter
    (fun p ->
      List.iter
        (fun l ->
          if not (Float.is_finite d.(l)) then
            invalid_arg "Problem.make: route uses an unusable link")
        p.Paths.links)
    routes;
  let n_flows = List.length flows in
  let flow_of = Array.make (Array.length routes) 0 in
  let flow_routes = Array.make n_flows [] in
  let idx = ref 0 in
  List.iteri
    (fun f routes_f ->
      List.iter
        (fun _ ->
          flow_of.(!idx) <- f;
          flow_routes.(f) <- !idx :: flow_routes.(f);
          incr idx)
        routes_f)
    flows;
  Array.iteri (fun f rs -> flow_routes.(f) <- List.rev rs) flow_routes;
  { g; dom; d; routes; flow_of; flow_routes; delta; external_airtime }

let n_routes t = Array.length t.routes

let n_flows t = Array.length t.flow_routes

let flow_rate t x f =
  List.fold_left (fun acc r -> acc +. x.(r)) 0.0 t.flow_routes.(f)

let flow_rates t x = Array.init (n_flows t) (flow_rate t x)

let airtime_demand t x l =
  let traffic = ref 0.0 in
  Array.iteri
    (fun r p -> if Paths.mem_link p l then traffic := !traffic +. x.(r))
    t.routes;
  (* An idle link adds no demand, even at d_l = infinity (a dead link),
     where d_l * 0 would be nan. *)
  let routed = if !traffic = 0.0 then 0.0 else t.d.(l) *. !traffic in
  routed +. t.external_airtime.(l)

let feasible ?(slack = 1e-9) t x =
  let n_links = Multigraph.num_links t.g in
  let demand = Array.init n_links (airtime_demand t x) in
  let ok = ref true in
  for l = 0 to n_links - 1 do
    let y = Array.fold_left (fun acc l' -> acc +. demand.(l')) 0.0 (Domain.domain t.dom l) in
    if Float.is_nan y || y > 1.0 -. t.delta +. slack then ok := false
  done;
  !ok
