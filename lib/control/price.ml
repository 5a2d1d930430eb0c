(* The dual arithmetic only involves links that can carry traffic
   (route links, plus links with external airtime) and the links whose
   interference domains contain them (their γ enters the route
   prices). Restricting the per-slot loops to those sets makes the
   controller's cost independent of the total network size — on the
   22-node testbed graph this is a ~50x saving. *)

type t = {
  problem : Problem.t;
  gamma : float array;          (* full-size; only relevant entries move *)
  carriers : int array;         (* links with possible demand *)
  on_link : int array array;    (* carrier position -> route ids *)
  priced : int array;           (* links whose gamma can become nonzero *)
  priced_carriers : int array array;
      (* per priced position: carrier positions within its domain *)
  route_domains : int array array;
      (* per carrier position: positions (in [priced]) of I_l *)
  n_links : int;
}

let create (problem : Problem.t) =
  let g = problem.Problem.g in
  let dom = problem.Problem.dom in
  let n_links = Multigraph.num_links g in
  let is_carrier = Array.make n_links false in
  Array.iter
    (fun p -> List.iter (fun l -> is_carrier.(l) <- true) p.Paths.links)
    problem.Problem.routes;
  Array.iteri
    (fun l ext -> if ext > 0.0 then is_carrier.(l) <- true)
    problem.Problem.external_airtime;
  let carriers =
    Array.of_list
      (List.filter (fun l -> is_carrier.(l)) (List.init n_links Fun.id))
  in
  let carrier_pos = Array.make n_links (-1) in
  Array.iteri (fun pos l -> carrier_pos.(l) <- pos) carriers;
  (* Links whose domain touches a carrier: their gamma can rise and
     feeds route prices. *)
  let is_priced = Array.make n_links false in
  Array.iter
    (fun l -> Array.iter (fun i -> is_priced.(i) <- true) (Domain.domain dom l))
    carriers;
  let priced =
    Array.of_list (List.filter (fun l -> is_priced.(l)) (List.init n_links Fun.id))
  in
  let priced_pos = Array.make n_links (-1) in
  Array.iteri (fun pos l -> priced_pos.(l) <- pos) priced;
  let on_link =
    Array.map
      (fun l ->
        let rs = ref [] in
        Array.iteri
          (fun r p -> if Paths.mem_link p l then rs := r :: !rs)
          problem.Problem.routes;
        Array.of_list (List.rev !rs))
      carriers
  in
  let priced_carriers =
    Array.map
      (fun i -> Array.map (fun l -> carrier_pos.(l)) (Domain.restrict dom is_carrier i))
      priced
  in
  let route_domains =
    Array.map
      (fun l -> Array.map (fun i -> priced_pos.(i)) (Domain.restrict dom is_priced l))
      carriers
  in
  {
    problem;
    gamma = Array.make n_links 0.0;
    carriers;
    on_link;
    priced;
    priced_carriers;
    route_domains;
    n_links;
  }

let gamma t = t.gamma

let airtimes t ~x =
  let p = t.problem in
  let n_carriers = Array.length t.carriers in
  let demand = Array.make n_carriers 0.0 in
  for c = 0 to n_carriers - 1 do
    let l = t.carriers.(c) in
    let traffic = ref 0.0 in
    Array.iter (fun r -> traffic := !traffic +. x.(r)) t.on_link.(c);
    demand.(c) <- (p.Problem.d.(l) *. !traffic) +. p.Problem.external_airtime.(l)
  done;
  let y = Array.make t.n_links 0.0 in
  Array.iteri
    (fun pos i ->
      let acc = ref 0.0 in
      Array.iter (fun c -> acc := !acc +. demand.(c)) t.priced_carriers.(pos);
      y.(i) <- !acc)
    t.priced;
  y

let step_gamma t ~y ~alpha =
  let target = 1.0 -. t.problem.Problem.delta in
  Array.iter
    (fun i ->
      let upd = t.gamma.(i) +. (alpha *. (y.(i) -. target)) in
      t.gamma.(i) <- Float.max 0.0 upd)
    t.priced

let route_costs t =
  let p = t.problem in
  (* Per-carrier price d_l * Σ_{i ∈ I_l} γ_i, then summed along routes. *)
  let link_price = Array.make t.n_links 0.0 in
  Array.iteri
    (fun c l ->
      let acc = ref 0.0 in
      Array.iter (fun pos -> acc := !acc +. t.gamma.(t.priced.(pos))) t.route_domains.(c);
      link_price.(l) <- p.Problem.d.(l) *. !acc)
    t.carriers;
  Array.map
    (fun path ->
      List.fold_left (fun acc l -> acc +. link_price.(l)) 0.0 path.Paths.links)
    p.Problem.routes

let routes_on_link t l =
  let res = ref [] in
  Array.iteri
    (fun c l' -> if l' = l then res := Array.to_list t.on_link.(c))
    t.carriers;
  !res
