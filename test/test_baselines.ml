(* Tests for the fluid MAC model, rate regions, the optimal solvers,
   backpressure dynamics, brute force, and the evaluation schemes. *)

let check_float ?(eps = 1e-6) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.6f, got %.6f" msg expected actual

let fig1 () =
  let g =
    Multigraph.create ~n_nodes:3 ~n_techs:2
      ~edges:[ (0, 1, 0, 15.0); (1, 2, 0, 30.0); (0, 1, 1, 10.0) ]
  in
  (g, Domain.single_domain_per_tech g)

let fig1_routes g =
  [ Paths.of_links g [ 4; 2 ]; Paths.of_links g [ 0; 2 ] ]

(* --- Fluid --- *)

let test_fluid_feasible_identity () =
  let g, dom = fig1 () in
  let offered = List.combine (fig1_routes g) [ 10.0; 20.0 /. 3.0 ] in
  match Fluid.goodput g dom ~offered with
  | [ a; b ] ->
    check_float ~eps:1e-3 "route1 delivered" 10.0 a;
    check_float ~eps:1e-3 "route2 delivered" (20.0 /. 3.0) b
  | _ -> Alcotest.fail "expected two rates"

let test_fluid_overload_scales_down () =
  let g, dom = fig1 () in
  let offered = List.combine (fig1_routes g) [ 10.0; 20.0 ] in
  match Fluid.goodput g dom ~offered with
  | [ a; b ] ->
    Alcotest.(check bool) "throttled" true (a +. b < 16.7);
    Alcotest.(check bool) "nonzero" true (a > 0.0 && b > 0.0)
  | _ -> Alcotest.fail "expected two rates"

let test_fluid_single_saturated_link () =
  let g = Multigraph.create ~n_nodes:2 ~n_techs:1 ~edges:[ (0, 1, 0, 10.0) ] in
  let dom = Domain.single_domain_per_tech g in
  let p = Paths.of_links g [ 0 ] in
  (match Fluid.goodput g dom ~offered:[ (p, 50.0) ] with
  | [ d ] -> check_float ~eps:1e-3 "capped at capacity" 10.0 d
  | _ -> Alcotest.fail "one rate")

let test_fluid_multihop_collapse () =
  (* Two-hop same-medium path overloaded: hop 1 steals airtime from
     hop 2 and goodput falls below the fair share (the congestion
     collapse the controller exists to avoid). *)
  let g =
    Multigraph.create ~n_nodes:3 ~n_techs:1 ~edges:[ (0, 1, 0, 20.0); (1, 2, 0, 20.0) ]
  in
  let dom = Domain.single_domain_per_tech g in
  let p = Paths.of_links g [ 0; 2 ] in
  let best = Update.path_rate g dom p in
  (match Fluid.goodput g dom ~offered:[ (p, 20.0) ] with
  | [ d ] -> Alcotest.(check bool) "collapsed below R(P)" true (d < best -. 0.5)
  | _ -> Alcotest.fail "one rate");
  match Fluid.goodput g dom ~offered:[ (p, best) ] with
  | [ d ] -> check_float ~eps:0.05 "R(P) flows through" best d
  | _ -> Alcotest.fail "one rate"

(* --- Rate_region / Opt_solver --- *)

let test_lp_fig1_optimal () =
  let g, dom = fig1 () in
  check_float ~eps:1e-4 "exact" (50.0 /. 3.0)
    (Opt_solver.max_throughput Rate_region.Exact g dom ~src:0 ~dst:2);
  check_float ~eps:1e-4 "conservative same here" (50.0 /. 3.0)
    (Opt_solver.max_throughput Rate_region.Conservative g dom ~src:0 ~dst:2)

let test_lp_single_link () =
  let g = Multigraph.create ~n_nodes:2 ~n_techs:1 ~edges:[ (0, 1, 0, 42.0) ] in
  let dom = Domain.single_domain_per_tech g in
  check_float ~eps:1e-6 "trivial max flow" 42.0
    (Opt_solver.max_throughput Rate_region.Exact g dom ~src:0 ~dst:1)

let test_lp_unreachable () =
  let g = Multigraph.create ~n_nodes:3 ~n_techs:1 ~edges:[ (0, 1, 0, 10.0) ] in
  let dom = Domain.single_domain_per_tech g in
  check_float "no path" 0.0
    (Opt_solver.max_throughput Rate_region.Exact g dom ~src:0 ~dst:2)

let test_lp_delta_scales () =
  let g, dom = fig1 () in
  let full = Opt_solver.max_throughput Rate_region.Exact g dom ~src:0 ~dst:2 in
  let margin =
    Opt_solver.max_throughput ~delta:0.3 Rate_region.Exact g dom ~src:0 ~dst:2
  in
  check_float ~eps:1e-4 "scaled by 1-delta" (0.7 *. full) margin

let test_conservative_below_exact () =
  (* A chain where I_l neighborhoods are larger than cliques:
     conservative must not exceed exact. Five-hop chain with
     range-limited interference. *)
  let n = 6 in
  let edges = List.init (n - 1) (fun i -> (i, i + 1, 0, 10.0)) in
  let g = Multigraph.create ~n_nodes:n ~n_techs:1 ~edges in
  let positions =
    Array.init n (fun i -> { Geometry.x = float_of_int i *. 20.0; y = 0.0 })
  in
  let dom =
    Domain.standard ~cs_factor:1.0 g
      ~techs:[| Technology.wifi ~index:0 ~channel:1 |]
      ~positions ~panels:(Array.make n 0)
  in
  let exact = Opt_solver.max_throughput Rate_region.Exact g dom ~src:0 ~dst:(n - 1) in
  let cons =
    Opt_solver.max_throughput Rate_region.Conservative g dom ~src:0 ~dst:(n - 1)
  in
  Alcotest.(check bool) "conservative <= exact" true (cons <= exact +. 1e-9);
  Alcotest.(check bool) "both positive" true (cons > 0.0)

let test_max_utility_fair_split () =
  (* Two flows on one shared 12 Mbps link: proportional fairness
     splits evenly. *)
  let g = Multigraph.create ~n_nodes:3 ~n_techs:1 ~edges:[ (0, 1, 0, 12.0); (1, 2, 0, 100.0) ] in
  let dom =
    Domain.create g ~interferes:(fun a b ->
        (Multigraph.link g a).Multigraph.edge = (Multigraph.link g b).Multigraph.edge)
  in
  let xs =
    Opt_solver.max_utility Rate_region.Exact g dom ~flows:[ (0, 1); (0, 1) ]
  in
  check_float ~eps:0.1 "even split a" 6.0 xs.(0);
  check_float ~eps:0.1 "even split b" 6.0 xs.(1)

let test_max_utility_matches_cc () =
  (* The distributed controller should reach (a neighborhood of) the
     Frank-Wolfe optimum on Figure 1. *)
  let g, dom = fig1 () in
  let xs = Opt_solver.max_utility Rate_region.Conservative g dom ~flows:[ (0, 2) ] in
  check_float ~eps:0.05 "FW finds 16.67" (50.0 /. 3.0) xs.(0)

(* --- Backpressure --- *)

let test_backpressure_near_optimal () =
  let g, dom = fig1 () in
  let r = Backpressure.run ~slots:10000 g dom ~flows:[ (0, 2) ] in
  Alcotest.(check bool) "close to 16.67" true
    (r.Backpressure.flow_rates.(0) > 15.0 && r.Backpressure.flow_rates.(0) < 17.5);
  match r.Backpressure.convergence_slot with
  | None -> Alcotest.fail "did not settle"
  | Some s -> Alcotest.(check bool) "slow-ish but settles" true (s > 10)

let test_backpressure_two_flows () =
  let g = Multigraph.create ~n_nodes:2 ~n_techs:1 ~edges:[ (0, 1, 0, 10.0) ] in
  let dom = Domain.single_domain_per_tech g in
  let r = Backpressure.run ~slots:6000 g dom ~flows:[ (0, 1); (0, 1) ] in
  check_float ~eps:1.0 "fair half a" 5.0 r.Backpressure.flow_rates.(0);
  check_float ~eps:1.0 "fair half b" 5.0 r.Backpressure.flow_rates.(1)

(* --- Brute force --- *)

let test_brute_force_matches_path_rate () =
  let g, dom = fig1 () in
  let p = Paths.of_links g [ 4; 2 ] in
  let bf = Brute_force.best_rate_on_path ~step:0.5 g dom p in
  check_float ~eps:0.6 "close to R(P)" (Update.path_rate g dom p) bf

let test_sp_bf_unreachable () =
  let g = Multigraph.create ~n_nodes:3 ~n_techs:1 ~edges:[ (0, 1, 0, 10.0) ] in
  let dom = Domain.single_domain_per_tech g in
  check_float "no route -> 0" 0.0 (Brute_force.sp_bf g dom ~src:0 ~dst:2)

(* --- Schemes --- *)

let residential_case seed =
  let rng = Rng.create seed in
  (Residential.generate rng, Rng.split rng)

let test_schemes_metadata () =
  Alcotest.(check int) "eight schemes" 8 (List.length Schemes.all);
  Alcotest.(check string) "name" "MP-w/o-CC" (Schemes.name Schemes.Mp_wo_cc);
  Alcotest.(check bool) "wo-cc has no cc" false (Schemes.uses_cc Schemes.Mp_wo_cc);
  Alcotest.(check bool) "mwifi scenario" true
    (Schemes.scenario Schemes.Mp_mwifi = Builder.Multi_wifi)

let test_schemes_ordering_holds () =
  (* On average over a few instances: EMPoWER >= SP >= SP-WiFi, and
     EMPoWER >= MP-2bp. *)
  let sums = Hashtbl.create 8 in
  let add s v =
    Hashtbl.replace sums s ((try Hashtbl.find sums s with Not_found -> 0.0) +. v)
  in
  for seed = 1 to 8 do
    let inst, rng = residential_case seed in
    let flow = ((fun (a, _) -> a) (0, 0), 9) in
    ignore flow;
    let flows = [ (0, 9) ] in
    List.iter
      (fun s -> add s (Schemes.evaluate (Rng.copy rng) inst s ~flows).(0))
      [ Schemes.Empower; Schemes.Sp; Schemes.Sp_wifi; Schemes.Mp_2bp ]
  done;
  let get s = Hashtbl.find sums s in
  Alcotest.(check bool) "EMPoWER >= SP" true
    (get Schemes.Empower >= get Schemes.Sp -. 0.5);
  Alcotest.(check bool) "SP > SP-WiFi" true (get Schemes.Sp > get Schemes.Sp_wifi);
  Alcotest.(check bool) "EMPoWER >= MP-2bp" true
    (get Schemes.Empower >= get Schemes.Mp_2bp -. 0.5)

let test_schemes_cc_beats_no_cc_multipath () =
  let worse = ref 0 in
  for seed = 1 to 6 do
    let inst, rng = residential_case (seed + 50) in
    let flows = [ (0, 9) ] in
    let e = (Schemes.evaluate (Rng.copy rng) inst Schemes.Empower ~flows).(0) in
    let w = (Schemes.evaluate (Rng.copy rng) inst Schemes.Mp_wo_cc ~flows).(0) in
    if e < w -. 0.5 then incr worse
  done;
  Alcotest.(check bool) "CC at least as good in most cases" true (!worse <= 1)

let test_schemes_unreachable_flow () =
  (* A WiFi-only destination too far for WiFi: SP-WiFi gets zero. *)
  let inst, rng = residential_case 3 in
  let rates = Schemes.evaluate (Rng.copy rng) inst Schemes.Sp_wifi ~flows:[ (0, 9) ] in
  Alcotest.(check bool) "finite" true (rates.(0) >= 0.0)

let test_schemes_feasible_delivery () =
  (* Delivered rates respect the exact-region optimum. *)
  for seed = 10 to 14 do
    let inst, rng = residential_case seed in
    let g = Builder.graph inst Builder.Hybrid in
    let dom = Domain.of_instance inst Builder.Hybrid g in
    let opt = Opt_solver.max_throughput Rate_region.Exact g dom ~src:0 ~dst:9 in
    let e = (Schemes.evaluate (Rng.copy rng) inst Schemes.Empower ~flows:[ (0, 9) ]).(0) in
    if e > opt *. 1.02 +. 0.2 then
      Alcotest.failf "seed %d: delivered %.2f above optimal %.2f" seed e opt
  done

let test_schemes_noise_changes_little () =
  let inst, rng = residential_case 7 in
  let opts = { Schemes.default_options with estimate_noise = 0.02 } in
  let clean = (Schemes.evaluate (Rng.copy rng) inst Schemes.Empower ~flows:[ (0, 9) ]).(0) in
  let noisy =
    (Schemes.evaluate ~opts (Rng.copy rng) inst Schemes.Empower ~flows:[ (0, 9) ]).(0)
  in
  Alcotest.(check bool) "within 20%" true
    (Float.abs (noisy -. clean) < 0.2 *. Float.max clean 1.0)

(* End-to-end optimality: the distributed controller on EMPoWER's
   routes should reach ~the conservative optimum (same constraint
   set, free routing) in most single-flow cases; never exceed it. *)
let prop_cc_tracks_conservative_opt =
  QCheck.Test.make ~name:"controller ~matches conservative opt (single flow)"
    ~count:10
    QCheck.(int_bound 10000)
    (fun seed ->
      let inst = Residential.generate (Rng.create (seed + 100)) in
      let g = Builder.graph inst Builder.Hybrid in
      let dom = Domain.of_instance inst Builder.Hybrid g in
      let comb = Multipath.find g dom ~src:0 ~dst:9 in
      match Multipath.routes comb with
      | [] -> true
      | routes ->
        let p = Problem.make g dom ~flows:[ routes ] in
        let x_init = Array.of_list (List.map snd comb.Multipath.paths) in
        let res = Multi_cc.solve ~x_init ~slots:3000 p in
        let cc = res.Cc_result.flow_rates.(0) in
        let opt =
          Opt_solver.max_throughput Rate_region.Conservative g dom ~src:0 ~dst:9
        in
        (* never above; usually close (route preselection + fixed step
           can cost some). *)
        cc <= (opt *. 1.03) +. 0.3 && cc >= 0.6 *. opt -. 0.3)

let prop_schemes_nonnegative =
  QCheck.Test.make ~name:"scheme rates are nonnegative and finite" ~count:10
    QCheck.(int_bound 10000)
    (fun seed ->
      let inst, rng = residential_case seed in
      List.for_all
        (fun s ->
          let r = Schemes.evaluate (Rng.copy rng) inst s ~flows:[ (0, 9) ] in
          Array.for_all (fun v -> Float.is_finite v && v >= 0.0) r)
        Schemes.all)

let () =
  Alcotest.run "baselines"
    [
      ( "fluid",
        [
          Alcotest.test_case "feasible passes through" `Quick
            test_fluid_feasible_identity;
          Alcotest.test_case "overload scales down" `Quick
            test_fluid_overload_scales_down;
          Alcotest.test_case "saturated link capped" `Quick
            test_fluid_single_saturated_link;
          Alcotest.test_case "multihop collapse" `Quick test_fluid_multihop_collapse;
        ] );
      ( "opt-solver",
        [
          Alcotest.test_case "figure-1 optimum" `Quick test_lp_fig1_optimal;
          Alcotest.test_case "single link" `Quick test_lp_single_link;
          Alcotest.test_case "unreachable" `Quick test_lp_unreachable;
          Alcotest.test_case "delta scaling" `Quick test_lp_delta_scales;
          Alcotest.test_case "conservative <= exact" `Quick
            test_conservative_below_exact;
          Alcotest.test_case "utility fair split" `Quick test_max_utility_fair_split;
          Alcotest.test_case "FW matches CC optimum" `Quick test_max_utility_matches_cc;
        ] );
      ( "backpressure",
        [
          Alcotest.test_case "near optimal" `Quick test_backpressure_near_optimal;
          Alcotest.test_case "two flows fair" `Quick test_backpressure_two_flows;
        ] );
      ( "brute-force",
        [
          Alcotest.test_case "matches R(P)" `Quick test_brute_force_matches_path_rate;
          Alcotest.test_case "unreachable" `Quick test_sp_bf_unreachable;
        ] );
      ( "schemes",
        [
          Alcotest.test_case "metadata" `Quick test_schemes_metadata;
          Alcotest.test_case "ordering holds" `Quick test_schemes_ordering_holds;
          Alcotest.test_case "CC beats no-CC" `Quick
            test_schemes_cc_beats_no_cc_multipath;
          Alcotest.test_case "unreachable flow" `Quick test_schemes_unreachable_flow;
          Alcotest.test_case "delivery below optimal" `Quick
            test_schemes_feasible_delivery;
          Alcotest.test_case "robust to estimation noise" `Quick
            test_schemes_noise_changes_little;
          QCheck_alcotest.to_alcotest prop_cc_tracks_conservative_opt;
          QCheck_alcotest.to_alcotest prop_schemes_nonnegative;
        ] );
    ]
