let n_nodes = 22

(* Fixed floorplan mimicking Figure 8: a left cluster (paper nodes
   1-6), a center band (7-14) and a right cluster (15-22), spread over
   the 65 x 40 m floor so that no single WiFi hop (35 m radius) covers
   the diagonal. Index i holds paper node i+1. *)
let positions =
  [|
    { Geometry.x = 4.0; y = 34.0 };   (* 1 *)
    { Geometry.x = 9.0; y = 37.0 };   (* 2 *)
    { Geometry.x = 7.0; y = 28.0 };   (* 3 *)
    { Geometry.x = 3.0; y = 21.0 };   (* 4 *)
    { Geometry.x = 12.0; y = 23.0 };  (* 5 *)
    { Geometry.x = 9.0; y = 13.0 };   (* 6 *)
    { Geometry.x = 21.0; y = 28.0 };  (* 7 *)
    { Geometry.x = 24.0; y = 19.0 };  (* 8 *)
    { Geometry.x = 20.0; y = 8.0 };   (* 9 *)
    { Geometry.x = 28.0; y = 12.0 };  (* 10 *)
    { Geometry.x = 17.0; y = 36.0 };  (* 11 *)
    { Geometry.x = 30.0; y = 33.0 };  (* 12 *)
    { Geometry.x = 35.0; y = 25.0 };  (* 13 *)
    { Geometry.x = 38.0; y = 14.0 };  (* 14 *)
    { Geometry.x = 44.0; y = 31.0 };  (* 15 *)
    { Geometry.x = 42.0; y = 6.0 };   (* 16 *)
    { Geometry.x = 49.0; y = 20.0 };  (* 17 *)
    { Geometry.x = 47.0; y = 38.0 };  (* 18 *)
    { Geometry.x = 55.0; y = 34.0 };  (* 19 *)
    { Geometry.x = 54.0; y = 11.0 };  (* 20 *)
    { Geometry.x = 60.0; y = 25.0 };  (* 21 *)
    { Geometry.x = 62.0; y = 7.0 };   (* 22 *)
  |]

(* Interior walls: the real office floor blocks many WiFi links that
   pure distance would allow (the paper's flows like 1->13 or 9->13
   are multi-hop at 20-40 m). We attenuate each pair's WiFi by a
   deterministic-per-draw wall count ~ one wall per ~9 m, halving the
   rate per wall; PLC rides the mains and does not care, which is
   exactly the medium-diversity the paper exploits. *)
let wall_attenuation rng dist =
  let expected_walls = dist /. 9.0 in
  let walls = ref 0 in
  let remaining = ref expected_walls in
  while !remaining > 0.0 do
    if Rng.float rng < Float.min 1.0 !remaining then incr walls;
    remaining := !remaining -. 1.0
  done;
  0.5 ** float_of_int !walls

let generate rng =
  let nodes =
    Array.init n_nodes (fun i ->
        { Builder.id = i; pos = positions.(i); dual = true; panel = 0 })
  in
  let inst = Builder.make rng ~nodes in
  for i = 0 to n_nodes - 1 do
    for j = i + 1 to n_nodes - 1 do
      let dist = Geometry.distance positions.(i) positions.(j) in
      let att = wall_attenuation rng dist in
      let apply m =
        let v = m.(i).(j) *. att in
        let v = if v < 5.0 then 0.0 else v in
        m.(i).(j) <- v;
        m.(j).(i) <- v
      in
      apply inst.Builder.wifi1;
      apply inst.Builder.wifi2
    done
  done;
  inst

let node k =
  if k < 1 || k > n_nodes then invalid_arg "Testbed.node: expected 1..22";
  k - 1
