let max_throughput ?delta model g dom ~src ~dst =
  let region = Rate_region.build ?delta model g dom ~flows:[ (src, dst) ] in
  let c = Rate_region.flow_value_coeffs region 0 in
  match Simplex.maximize ~c ~rows:(Rate_region.rows region) with
  | Simplex.Optimal (_, v) -> Float.max 0.0 v
  | Simplex.Infeasible -> 0.0
  | Simplex.Unbounded ->
    (* Airtime rows bound every usable link, so flows are bounded. *)
    assert false

(* Golden-section search for the maximum of a concave function on
   [0, 1]. *)
let golden_max f =
  let phi = (sqrt 5.0 -. 1.0) /. 2.0 in
  let rec go a b fa fb n =
    if n = 0 then (a +. b) /. 2.0
    else begin
      let x1 = b -. (phi *. (b -. a)) in
      let x2 = a +. (phi *. (b -. a)) in
      if f x1 >= f x2 then go a x2 fa (f x2) (n - 1) else go x1 b (f x1) fb (n - 1)
    end
  in
  go 0.0 1.0 (f 0.0) (f 1.0) 40

(* Frank–Wolfe steps: enough for < 0.1% objective error on paper-scale
   networks. *)
let iterations = 200

let utility = Utility.proportional_fair

let max_utility ?delta model g dom ~flows =
  let region = Rate_region.build ?delta model g dom ~flows in
  let n = Rate_region.n_vars region in
  let rows = Rate_region.rows region in
  let n_flows = List.length flows in
  let value_coeffs = Array.init n_flows (Rate_region.flow_value_coeffs region) in
  let flow_values y =
    Array.map
      (fun c ->
        let acc = ref 0.0 in
        Array.iteri (fun j cj -> if cj <> 0.0 then acc := !acc +. (cj *. y.(j))) c;
        !acc)
      value_coeffs
  in
  let objective y =
    Array.fold_left
      (fun acc x -> acc +. utility.Utility.u (Float.max 0.0 x))
      0.0 (flow_values y)
  in
  let y = Array.make n 0.0 in
  let exception Converged in
  (try
     for _ = 1 to iterations do
       let x = flow_values y in
       (* Linearized objective: Σ_f U'(x_f) * x_f(y). *)
       let grad = Array.make n 0.0 in
       Array.iteri
         (fun f c ->
           let w = utility.Utility.u' (Float.max 0.0 x.(f)) in
           Array.iteri (fun j cj -> grad.(j) <- grad.(j) +. (w *. cj)) c)
         value_coeffs;
       match Simplex.maximize ~c:grad ~rows with
       | Simplex.Infeasible | Simplex.Unbounded -> raise Converged
       | Simplex.Optimal (v, _) ->
         (* Frank-Wolfe gap check. *)
         let gap = ref 0.0 in
         Array.iteri (fun j g' -> gap := !gap +. (g' *. (v.(j) -. y.(j)))) grad;
         if !gap < 1e-6 then raise Converged;
         let f_line theta =
           let yt = Array.mapi (fun j yj -> yj +. (theta *. (v.(j) -. yj))) y in
           objective yt
         in
         let theta = golden_max f_line in
         Array.iteri (fun j yj -> y.(j) <- yj +. (theta *. (v.(j) -. yj))) y
     done
   with Converged -> ());
  Array.map (Float.max 0.0) (flow_values y)
