(* The two §4.3 updates, written once for this solver and for the
   packet engine's per-ACK controller ([@inline]: the slot loop below
   keeps its floats unboxed). *)
let[@inline] update_rate ~a ~gain ~u' ~q ~x ~x_bar r =
  let inner = Float.max 0.0 (x_bar.(r) +. (gain *. (u' -. q))) in
  x.(r) <- ((1.0 -. a) *. x.(r)) +. (a *. inner)

let[@inline] update_average ~a ~x ~x_bar =
  for r = 0 to Array.length x - 1 do
    x_bar.(r) <- ((1.0 -. a) *. x_bar.(r)) +. (a *. x.(r))
  done

let solve_tracked ?(gain = 50.0) ?(slots = 2000) ?stop_tol ?x_init ~on_slot
    (problem : Problem.t) =
  let a = Alpha.base in
  let n_routes = Problem.n_routes problem in
  let x =
    match x_init with
    | Some x0 ->
      if Array.length x0 <> n_routes then
        invalid_arg "Multi_cc.solve: x_init length mismatch";
      Array.copy x0
    | None -> Array.make n_routes 0.0
  in
  let x_bar = Array.copy x in
  let price = Price.create problem in
  let trace = Array.make slots [||] in
  let u' = Utility.proportional_fair.Utility.u' in
  let stopped = ref None in
  let t = ref 0 in
  while !t < slots && !stopped = None do
    Price.step price ~x ~alpha:a;
    let q = Price.route_costs price in
    let flow_rate = Problem.flow_rates problem x in
    for r = 0 to n_routes - 1 do
      let f = problem.Problem.flow_of.(r) in
      update_rate ~a ~gain ~u':(u' flow_rate.(f)) ~q:q.(r) ~x ~x_bar r
    done;
    update_average ~a ~x ~x_bar;
    let flow_rates = Problem.flow_rates problem x in
    trace.(!t) <- flow_rates;
    on_slot !t x;
    (* Optional early stop: no flow rate moved by more than the
       tolerance over the last 200 slots. *)
    (match stop_tol with
    | Some tol when !t >= 200 && !t mod 50 = 0 ->
      let settled = ref true in
      Array.iteri
        (fun f v ->
          let prev = trace.(!t - 200).(f) in
          if Float.abs (v -. prev) > Float.max tol (0.005 *. Float.abs v) then
            settled := false)
        flow_rates;
      if !settled then stopped := Some !t
    | Some _ | None -> ());
    incr t
  done;
  (* Pad the trace so convergence measurement still works. *)
  (match !stopped with
  | Some s ->
    for t' = s + 1 to slots - 1 do
      trace.(t') <- trace.(s)
    done
  | None -> ());
  {
    Cc_result.rates = x;
    flow_rates = Problem.flow_rates problem x;
    slots;
    trace;
  }

let solve ?gain ?slots ?stop_tol ?x_init problem =
  solve_tracked ?gain ?slots ?stop_tol ?x_init ~on_slot:(fun _ _ -> ()) problem
