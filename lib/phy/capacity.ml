(* 802.11n 40 MHz single-stream MCS PHY rates scaled to ~effective UDP
   throughput, topping out at ~100 Mbps as measured on the testbed. *)
let mcs_steps =
  [| 0.0; 6.5; 13.0; 19.5; 26.0; 39.0; 52.0; 58.5; 65.0; 78.0; 91.0; 100.0 |]

let quantize_mcs rate =
  let best = ref 0.0 in
  Array.iter (fun s -> if s <= rate && s > !best then best := s) mcs_steps;
  (* Round to the highest step not exceeding the raw rate. *)
  if rate >= mcs_steps.(Array.length mcs_steps - 1) then
    mcs_steps.(Array.length mcs_steps - 1)
  else !best

let wifi_radius = 35.0
let plc_radius = 50.0
let peak = 100.0

(* Raw (pre-quantization) WiFi rate: steep distance decay with lognormal
   shadowing. Calibrated so that ~5 m links reach the peak and rates
   near the connection radius drop to a few Mbps. *)
let wifi_raw rng ~distance_m =
  if distance_m > wifi_radius then 0.0
  else begin
    let frac = distance_m /. wifi_radius in
    let mean_rate = peak *. (1.0 -. (frac ** 1.35)) in
    let shadow = exp (Rng.gaussian rng ~mean:0.0 ~std:0.30) in
    Float.max 0.0 (Float.min peak (mean_rate *. shadow))
  end

let wifi_capacity rng ~distance_m = quantize_mcs (wifi_raw rng ~distance_m)

(* PLC: wiring topology, not geometric distance, dominates. We model a
   weak distance trend plus a wide lognormal spread, so short links can
   be mediocre and long links can be strong — the diversity that lets
   PLC cover WiFi blind spots. *)
let plc_capacity rng ~distance_m =
  if distance_m > plc_radius then 0.0
  else begin
    let frac = distance_m /. plc_radius in
    let mean_rate = peak *. (0.85 -. (0.45 *. frac)) in
    let shadow = exp (Rng.gaussian rng ~mean:0.0 ~std:0.55) in
    let rate = mean_rate *. shadow in
    (* Bit loading is continuous; clamp to the usable range and drop
       hopeless links (deep notches) to zero. *)
    if rate < 2.0 then 0.0 else Float.min peak rate
  end

let correlated_wifi_pair rng ~distance_m =
  if distance_m > wifi_radius then (0.0, 0.0)
  else begin
    let frac = distance_m /. wifi_radius in
    let mean_rate = peak *. (1.0 -. (frac ** 1.35)) in
    (* Common large-scale shadowing, small independent per-channel term. *)
    let common = exp (Rng.gaussian rng ~mean:0.0 ~std:0.28) in
    let c1 = exp (Rng.gaussian rng ~mean:0.0 ~std:0.08) in
    let c2 = exp (Rng.gaussian rng ~mean:0.0 ~std:0.08) in
    let cap noise =
      quantize_mcs (Float.max 0.0 (Float.min peak (mean_rate *. common *. noise)))
    in
    (cap c1, cap c2)
  end

let equal_wifi_pair rng ~distance_m =
  let c = wifi_capacity rng ~distance_m in
  (c, c)
