(* Bound on the primal iterate: U'^-1 explodes while prices are still
   zero in the first slots. *)
let x_cap = 1000.0

let solve ?(slots = 2000) (problem : Problem.t) =
  Array.iter
    (fun routes ->
      if List.length routes > 1 then
        invalid_arg "Single_cc.solve: a flow has several routes")
    problem.Problem.flow_routes;
  let n_routes = Problem.n_routes problem in
  let price = Price.create problem in
  let x = Array.make n_routes 0.0 in
  let trace = Array.make slots [||] in
  let u'_inv = Utility.proportional_fair.Utility.u'_inv in
  for t = 0 to slots - 1 do
    Price.step price ~x ~alpha:Alpha.base;
    let q = Price.route_costs price in
    for r = 0 to n_routes - 1 do
      x.(r) <- Float.min x_cap (u'_inv q.(r))
    done;
    let flow_rates = Problem.flow_rates problem x in
    trace.(t) <- flow_rates
  done;
  {
    Cc_result.rates = x;
    flow_rates = Problem.flow_rates problem x;
    slots;
    trace;
  }
