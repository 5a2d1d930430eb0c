(* Tests for technologies, capacity samplers and the capacity
   estimator. *)

let check_float ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.6f, got %.6f" msg expected actual

let test_technology_descriptors () =
  let w = Technology.wifi ~index:0 ~channel:1 in
  let p = Technology.plc ~index:1 in
  Alcotest.(check bool) "wifi is wifi" true (Technology.is_wifi w);
  Alcotest.(check bool) "wifi not plc" false (Technology.is_plc w);
  Alcotest.(check bool) "plc is plc" true (Technology.is_plc p);
  check_float "wifi radius" 35.0 w.Technology.conn_radius_m;
  check_float "plc radius" 50.0 p.Technology.conn_radius_m;
  Alcotest.(check string) "wifi name" "wifi1" w.Technology.name;
  Alcotest.(check string) "plc name" "plc" p.Technology.name

let test_technology_sets () =
  Alcotest.(check int) "hybrid = 2 techs" 2 (List.length (Technology.hybrid ()));
  Alcotest.(check int) "single wifi" 1 (List.length (Technology.single_wifi ()));
  Alcotest.(check int) "multi wifi" 2 (List.length (Technology.multi_wifi ()));
  let mw = Technology.multi_wifi () in
  Alcotest.(check bool) "both are wifi" true (List.for_all Technology.is_wifi mw);
  let indexes = List.map (fun t -> t.Technology.index) mw in
  Alcotest.(check (list int)) "dense indexes" [ 0; 1 ] indexes

let test_wifi_out_of_range () =
  let rng = Rng.create 1 in
  for _ = 1 to 50 do
    check_float "beyond radius" 0.0 (Capacity.wifi_capacity rng ~distance_m:36.0)
  done

let test_plc_out_of_range () =
  let rng = Rng.create 2 in
  for _ = 1 to 50 do
    check_float "beyond radius" 0.0 (Capacity.plc_capacity rng ~distance_m:51.0)
  done

let test_capacity_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 2000 do
    let d = Rng.uniform rng 0.0 50.0 in
    let w = Capacity.wifi_capacity rng ~distance_m:d in
    let p = Capacity.plc_capacity rng ~distance_m:d in
    if w < 0.0 || w > 100.0 then Alcotest.failf "wifi out of bounds: %f" w;
    if p < 0.0 || p > 100.0 then Alcotest.failf "plc out of bounds: %f" p
  done

let test_wifi_quantized () =
  let rng = Rng.create 4 in
  let steps = Array.to_list Capacity.mcs_steps in
  for _ = 1 to 500 do
    let d = Rng.uniform rng 0.0 35.0 in
    let w = Capacity.wifi_capacity rng ~distance_m:d in
    Alcotest.(check bool) "on MCS ladder" true (List.mem w steps)
  done

let test_wifi_distance_trend () =
  (* Mean capacity at 5 m should clearly beat the mean at 30 m. *)
  let rng = Rng.create 5 in
  let mean_at d =
    Stats.mean (List.init 2000 (fun _ -> Capacity.wifi_capacity rng ~distance_m:d))
  in
  let near = mean_at 5.0 and far = mean_at 30.0 in
  Alcotest.(check bool) "near >> far" true (near > far +. 20.0)

let test_plc_weak_distance_trend () =
  (* PLC decays with distance much more slowly than WiFi: the ratio of
     mean capacity at 30 m vs 5 m should be far higher for PLC. *)
  let rng = Rng.create 6 in
  let mean m d = Stats.mean (List.init 2000 (fun _ -> m rng ~distance_m:d)) in
  let wifi_ratio = mean Capacity.wifi_capacity 30.0 /. mean Capacity.wifi_capacity 5.0 in
  let plc_ratio = mean Capacity.plc_capacity 30.0 /. mean Capacity.plc_capacity 5.0 in
  Alcotest.(check bool) "plc flatter than wifi" true (plc_ratio > wifi_ratio +. 0.2)

let test_equal_wifi_pair () =
  let rng = Rng.create 7 in
  for _ = 1 to 200 do
    let a, b = Capacity.equal_wifi_pair rng ~distance_m:15.0 in
    check_float "channels equal" a b
  done

let test_correlated_wifi_pair () =
  let rng = Rng.create 8 in
  let pairs = List.init 2000 (fun _ -> Capacity.correlated_wifi_pair rng ~distance_m:20.0) in
  let xs = List.map fst pairs and ys = List.map snd pairs in
  let mx = Stats.mean xs and my = Stats.mean ys in
  let cov =
    Stats.mean (List.map2 (fun a b -> (a -. mx) *. (b -. my)) xs ys)
  in
  let corr = cov /. (Stats.stddev xs *. Stats.stddev ys) in
  Alcotest.(check bool) "strong positive correlation" true (corr > 0.5)

let test_estimator_converges () =
  let rng = Rng.create 9 in
  let e = Estimator.create ~mode:Estimator.Active_traffic rng ~initial_capacity:50.0 in
  (* Capacity drops to 20; with 100 ms observations the estimate must
     track within ~1 s. *)
  for i = 1 to 20 do
    Estimator.observe e ~now:(float_of_int i *. 0.1) ~true_capacity:20.0
  done;
  check_float ~eps:2.0 "tracked to 20" 20.0 (Estimator.estimate e)

let test_estimator_probing_slower () =
  let rng_a = Rng.create 10 and rng_b = Rng.create 10 in
  let fast = Estimator.create ~mode:Estimator.Active_traffic rng_a ~initial_capacity:50.0 in
  let slow = Estimator.create ~mode:Estimator.Probing rng_b ~initial_capacity:50.0 in
  for i = 1 to 5 do
    let now = float_of_int i *. 0.1 in
    Estimator.observe fast ~now ~true_capacity:10.0;
    Estimator.observe slow ~now ~true_capacity:10.0
  done;
  Alcotest.(check bool) "active tracks faster" true
    (Float.abs (Estimator.estimate fast -. 10.0)
    < Float.abs (Estimator.estimate slow -. 10.0))

let test_estimator_modes () =
  let rng = Rng.create 11 in
  let e = Estimator.create rng ~initial_capacity:42.0 in
  Alcotest.(check bool) "starts probing" true (Estimator.mode e = Estimator.Probing);
  Estimator.set_mode e Estimator.Active_traffic;
  Alcotest.(check bool) "switched" true (Estimator.mode e = Estimator.Active_traffic);
  Alcotest.(check bool) "probing noisier" true
    (Estimator.relative_error Estimator.Probing
    > Estimator.relative_error Estimator.Active_traffic);
  Alcotest.(check bool) "probing slower" true
    (Estimator.reaction_time Estimator.Probing
    > Estimator.reaction_time Estimator.Active_traffic)

let prop_estimator_nonnegative =
  QCheck.Test.make ~name:"estimates stay nonnegative" ~count:100
    QCheck.(pair (int_bound 10000) (float_range 0.0 100.0))
    (fun (seed, cap) ->
      let rng = Rng.create seed in
      let e = Estimator.create rng ~initial_capacity:cap in
      let ok = ref true in
      for i = 1 to 50 do
        Estimator.observe e ~now:(float_of_int i) ~true_capacity:(cap /. 2.0);
        if Estimator.estimate e < 0.0 then ok := false
      done;
      !ok)

let () =
  Alcotest.run "phy"
    [
      ( "technology",
        [
          Alcotest.test_case "descriptors" `Quick test_technology_descriptors;
          Alcotest.test_case "scenario sets" `Quick test_technology_sets;
        ] );
      ( "capacity",
        [
          Alcotest.test_case "wifi out of range" `Quick test_wifi_out_of_range;
          Alcotest.test_case "plc out of range" `Quick test_plc_out_of_range;
          Alcotest.test_case "bounds" `Quick test_capacity_bounds;
          Alcotest.test_case "wifi quantized" `Quick test_wifi_quantized;
          Alcotest.test_case "wifi distance trend" `Quick test_wifi_distance_trend;
          Alcotest.test_case "plc weak distance trend" `Quick
            test_plc_weak_distance_trend;
          Alcotest.test_case "equal wifi pair" `Quick test_equal_wifi_pair;
          Alcotest.test_case "correlated wifi pair" `Quick test_correlated_wifi_pair;
        ] );
      ( "estimator",
        [
          Alcotest.test_case "converges" `Quick test_estimator_converges;
          Alcotest.test_case "probing slower" `Quick test_estimator_probing_slower;
          Alcotest.test_case "modes" `Quick test_estimator_modes;
          QCheck_alcotest.to_alcotest prop_estimator_nonnegative;
        ] );
    ]
