(* Tests for utilities, prices and the single-/multi-path congestion
   controllers, including the Figure 1 rate split. *)

let check_float ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.6f, got %.6f" msg expected actual

let fig1 () =
  let g =
    Multigraph.create ~n_nodes:3 ~n_techs:2
      ~edges:[ (0, 1, 0, 15.0); (1, 2, 0, 30.0); (0, 1, 1, 10.0) ]
  in
  (g, Domain.single_domain_per_tech g)

let fig1_routes g =
  (* Route 1: PLC a->b (4), WiFi b->c (2). Route 2: WiFi a->b (0), WiFi
     b->c (2). *)
  [ Paths.of_links g [ 4; 2 ]; Paths.of_links g [ 0; 2 ] ]

(* --- Utility --- *)

let test_utility_proportional_fair () =
  let u = Utility.proportional_fair in
  check_float "U(0)" 0.0 (u.Utility.u 0.0);
  check_float "U'(0)" 1.0 (u.Utility.u' 0.0);
  check_float "U'inv(1)" 0.0 (u.Utility.u'_inv 1.0);
  check_float "U'inv(0.1)" 9.0 (u.Utility.u'_inv 0.1);
  check_float "U'inv clamped" 0.0 (u.Utility.u'_inv 5.0)

let test_utility_inverse_roundtrip () =
  let u = Utility.proportional_fair in
  List.iter
    (fun x ->
      check_float ~eps:1e-6
        (Printf.sprintf "%s roundtrip at %.1f" u.Utility.name x)
        x
        (u.Utility.u'_inv (u.Utility.u' x)))
    [ 0.0; 0.5; 1.0; 10.0; 100.0 ]

let test_utility_concavity () =
  let u = Utility.proportional_fair in
  let rec check_decreasing prev = function
    | [] -> ()
    | x :: tl ->
      let d = u.Utility.u' x in
      Alcotest.(check bool) "U' decreasing" true (d < prev);
      check_decreasing d tl
  in
  check_decreasing (u.Utility.u' 0.0 +. 1.0) [ 0.0; 1.0; 2.0; 5.0; 20.0 ]

(* --- Problem / Price --- *)

let test_problem_structure () =
  let g, dom = fig1 () in
  let routes = fig1_routes g in
  let p = Problem.make g dom ~flows:[ routes ] in
  Alcotest.(check int) "2 routes" 2 (Problem.n_routes p);
  Alcotest.(check int) "1 flow" 1 (Problem.n_flows p);
  Alcotest.(check (list int)) "flow routes" [ 0; 1 ] p.Problem.flow_routes.(0);
  check_float "flow rate" 7.0 (Problem.flow_rate p [| 3.0; 4.0 |] 0);
  let p2 = Problem.make g dom ~flows:[ [ List.hd routes ]; [ List.nth routes 1 ] ] in
  Alcotest.(check int) "2 flows" 2 (Problem.n_flows p2);
  Alcotest.(check int) "flow of route 1" 1 p2.Problem.flow_of.(1)

let test_problem_validation () =
  let g, dom = fig1 () in
  Alcotest.(check bool) "bad delta rejected" true
    (try
       ignore (Problem.make ~delta:1.5 g dom ~flows:[]);
       false
     with Invalid_argument _ -> true);
  let dead = Multigraph.create ~n_nodes:2 ~n_techs:1 ~edges:[ (0, 1, 0, 0.0) ] in
  let ddom = Domain.single_domain_per_tech dead in
  Alcotest.(check bool) "unusable route rejected" true
    (try
       ignore (Problem.make dead ddom ~flows:[ [ { Paths.links = [ 0 ] } ] ]);
       false
     with Invalid_argument _ -> true)

let test_airtime_demand () =
  let g, dom = fig1 () in
  let p = Problem.make g dom ~flows:[ fig1_routes g ] in
  (* x = (10, 0): Route 1 only. Link 2 (wifi b->c) carries 10 Mbps:
     demand = 10/30. Link 4 (plc) carries 10: demand = 1. *)
  let x = [| 10.0; 0.0 |] in
  check_float "wifi b->c demand" (1.0 /. 3.0) (Problem.airtime_demand p x 2);
  check_float "plc demand" 1.0 (Problem.airtime_demand p x 4);
  check_float "unused wifi a->b" 0.0 (Problem.airtime_demand p x 0)

let test_feasibility () =
  let g, dom = fig1 () in
  let p = Problem.make g dom ~flows:[ fig1_routes g ] in
  (* The optimum (10, 20/3) saturates both constraints. *)
  Alcotest.(check bool) "optimum feasible" true
    (Problem.feasible ~slack:1e-6 p [| 10.0; 20.0 /. 3.0 |]);
  Alcotest.(check bool) "above optimum infeasible" false
    (Problem.feasible p [| 10.0; 8.0 |]);
  Alcotest.(check bool) "zero feasible" true (Problem.feasible p [| 0.0; 0.0 |]);
  (* An idle zero-capacity link in the domain adds no demand (not
     infinity * 0 = nan), so a 10x overload of its neighbour is caught. *)
  let g =
    Multigraph.create ~n_nodes:3 ~n_techs:1 ~edges:[ (0, 1, 0, 10.0); (1, 2, 0, 0.0) ]
  in
  let p =
    Problem.make g (Domain.single_domain_per_tech g) ~flows:[ [ Paths.of_links g [ 0 ] ] ]
  in
  Alcotest.(check (float 0.0)) "idle dead link demand" 0.0
    (Problem.airtime_demand p [| 100.0 |] 2);
  Alcotest.(check bool) "overload next to a dead link infeasible" false
    (Problem.feasible p [| 100.0 |])

let test_price_airtimes () =
  let g, dom = fig1 () in
  let p = Problem.make g dom ~flows:[ fig1_routes g ] in
  let price = Price.create p in
  let y = Price.airtimes price ~x:[| 10.0; 0.0 |] in
  (* y for wifi b->c: all wifi demands = 10/30 (link 2 only). *)
  check_float "y wifi" (1.0 /. 3.0) y.(2);
  (* y for plc a->b: 10/10 = 1. *)
  check_float "y plc" 1.0 y.(4)

let test_price_gamma_updates () =
  let g, dom = fig1 () in
  let p = Problem.make g dom ~flows:[ fig1_routes g ] in
  let price = Price.create p in
  (* Overloaded airtime raises gamma; underloaded decays to zero.
     x = (20, 40/3) gives y = 2 on every link of fig1. *)
  Price.step price ~x:[| 20.0; 40.0 /. 3.0 |] ~alpha:0.1;
  Alcotest.(check bool) "gamma rose" true ((Price.gamma price).(0) > 0.0);
  for _ = 1 to 100 do
    Price.step price ~x:[| 0.0; 0.0 |] ~alpha:0.1
  done;
  check_float "gamma decayed to 0" 0.0 (Price.gamma price).(0)

let test_price_route_costs () =
  let g, dom = fig1 () in
  let p = Problem.make g dom ~flows:[ fig1_routes g ] in
  let price = Price.create p in
  (* x = (20, 40/3) gives y = 2 on every link: all gammas = 1 now. *)
  Price.step price ~x:[| 20.0; 40.0 /. 3.0 |] ~alpha:1.0;
  (* q_r = sum over hops of d_l * |I_l|. *)
  let q = Price.route_costs price in
  (* Route 1: plc hop d=1/10, |I|=2 -> 0.2 ; wifi hop d=1/30, |I|=4 ->
     4/30. *)
  check_float ~eps:1e-9 "q route 1" (0.2 +. (4.0 /. 30.0)) q.(0);
  (* Route 2: wifi a->b d=1/15 |I|=4 -> 4/15 ; + 4/30. *)
  check_float ~eps:1e-9 "q route 2" ((4.0 /. 15.0) +. (4.0 /. 30.0)) q.(1)

(* A testbed problem: its carriers' I_l hold 190-426 links, so
   [route_costs] jumps through long runs. *)
let test_price_slot_allocates_nothing () =
  let inst = Testbed.generate (Rng.create 4242) in
  let net = Empower.of_instance inst Builder.Hybrid in
  let routes = Multipath.routes (Multipath.find net.Empower.g net.Empower.dom ~src:0 ~dst:12) in
  let p = Problem.make ~delta:0.05 net.Empower.g net.Empower.dom ~flows:[ routes ] in
  let price = Price.create p in
  let x = Array.make (Problem.n_routes p) 30.0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    Price.step price ~x ~alpha:0.02;
    ignore (Price.route_costs price)
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "prices rose" true
    (Array.exists (fun q -> q > 0.0) (Price.route_costs price));
  Alcotest.(check (float 0.0)) "minor words in 1,000 slots" 0.0 words

(* --- Alpha heuristic --- *)

let test_alpha_initial () =
  check_float "3-hop multipath" 0.02
    (Alpha.initial ~single_path:false ~longest_route_hops:3);
  check_float "two-hop" 0.04 (Alpha.initial ~single_path:false ~longest_route_hops:2);
  check_float "single path" 0.04 (Alpha.initial ~single_path:true ~longest_route_hops:3);
  check_float "one-hop" 0.08 (Alpha.initial ~single_path:false ~longest_route_hops:1)

let test_alpha_halves_on_oscillation () =
  let a = Alpha.create ~single_path:false ~longest_route_hops:3 in
  let a0 = Alpha.current a in
  (* Feed a growing oscillation: +1, -2, +3, -4 ... amplitudes
     non-decreasing, every step a sign flip. *)
  let rate = ref 10.0 in
  for i = 1 to 20 do
    let amp = float_of_int i in
    rate := !rate +. (if i mod 2 = 0 then -.amp else amp);
    Alpha.observe a !rate
  done;
  Alcotest.(check bool) "alpha halved" true (Alpha.current a < a0)

let test_alpha_stable_rate_keeps_alpha () =
  let a = Alpha.create ~single_path:false ~longest_route_hops:3 in
  let a0 = Alpha.current a in
  for i = 1 to 100 do
    Alpha.observe a (10.0 +. (0.001 *. float_of_int i))
  done;
  check_float "unchanged" a0 (Alpha.current a)

(* --- Controllers --- *)

let test_single_cc_one_link () =
  (* One flow, one direct 10 Mbps link, single collision domain: the
     proportional-fair optimum under sum-airtime <= 1 is x = 10. *)
  let g = Multigraph.create ~n_nodes:2 ~n_techs:1 ~edges:[ (0, 1, 0, 10.0) ] in
  let dom = Domain.single_domain_per_tech g in
  let p = Problem.make g dom ~flows:[ [ Paths.of_links g [ 0 ] ] ] in
  let res = Single_cc.solve ~slots:4000 p in
  check_float ~eps:0.3 "x -> 10" 10.0 res.Cc_result.flow_rates.(0);
  Alcotest.(check bool) "feasible" true
    (Problem.feasible ~slack:0.05 p res.Cc_result.rates)

let test_single_cc_two_flows_fair () =
  (* Two flows sharing one 12 Mbps link: proportional fairness splits
     it evenly (identical utilities). *)
  let g = Multigraph.create ~n_nodes:2 ~n_techs:1 ~edges:[ (0, 1, 0, 12.0) ] in
  let dom = Domain.single_domain_per_tech g in
  let r () = Paths.of_links g [ 0 ] in
  let p = Problem.make g dom ~flows:[ [ r () ]; [ r () ] ] in
  let res = Single_cc.solve ~slots:4000 p in
  check_float ~eps:0.3 "flow 0 half" 6.0 res.Cc_result.flow_rates.(0);
  check_float ~eps:0.3 "flow 1 half" 6.0 res.Cc_result.flow_rates.(1)

let test_single_cc_rejects_multipath () =
  let g, dom = fig1 () in
  let p = Problem.make g dom ~flows:[ fig1_routes g ] in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Single_cc.solve p);
       false
     with Invalid_argument _ -> true)

(* EMPoWER starts injection at the routing-estimated rates; compute
   them the way the source would (standalone R(P) per route from the
   multipath procedure). *)
let routing_init g dom flows =
  Array.of_list
    (List.concat_map (List.map (fun p -> Update.path_rate g dom p)) flows)

let test_multi_cc_fig1 () =
  (* The Figure 1 scenario: total must approach 10 + 20/3 = 16.67. *)
  let g, dom = fig1 () in
  let comb = Multipath.find g dom ~src:0 ~dst:2 in
  let x_init = Array.of_list (List.map snd comb.Multipath.paths) in
  let p = Problem.make g dom ~flows:[ Multipath.routes comb ] in
  let res = Multi_cc.solve ~x_init ~slots:8000 p in
  check_float ~eps:0.5 "total ~16.67" (50.0 /. 3.0) res.Cc_result.flow_rates.(0);
  Alcotest.(check bool) "feasible with slack" true
    (Problem.feasible ~slack:0.05 p res.Cc_result.rates)

let test_multi_cc_respects_delta () =
  let g, dom = fig1 () in
  let p = Problem.make ~delta:0.3 g dom ~flows:[ fig1_routes g ] in
  let res = Multi_cc.solve ~slots:8000 p in
  (* With margin 0.3, airtime targets shrink to 0.7: max total is
     0.7 * 16.67 = 11.67. *)
  Alcotest.(check bool) "total reduced" true (res.Cc_result.flow_rates.(0) < 13.0);
  Alcotest.(check bool) "still substantial" true (res.Cc_result.flow_rates.(0) > 9.0)

let test_multi_cc_offloads_under_contention () =
  (* Figure 9's adaptation: when a second flow saturates the WiFi
     medium, flow 1 should move (mostly) to PLC. Topology: flow A has
     a PLC route and a WiFi route; flow B has only the WiFi medium. *)
  let g =
    Multigraph.create ~n_nodes:4 ~n_techs:2
      ~edges:
        [
          (0, 1, 1, 20.0) (* plc a->b, flow A route 1 *);
          (0, 1, 0, 20.0) (* wifi a->b, flow A route 2 *);
          (2, 3, 0, 20.0) (* wifi c->d, flow B *);
        ]
  in
  let dom = Domain.single_domain_per_tech g in
  let route_plc = Paths.of_links g [ 0 ] in
  let route_wifi = Paths.of_links g [ 2 ] in
  let route_b = Paths.of_links g [ 4 ] in
  let flows = [ [ route_plc; route_wifi ]; [ route_b ] ] in
  let p = Problem.make g dom ~flows in
  let res = Multi_cc.solve ~x_init:(routing_init g dom flows) ~slots:12000 p in
  (* Flow A keeps the full PLC rate; WiFi is split between A's second
     route and B. Proportional fairness: flow A has ~20 from PLC
     already, so B (poorer) gets almost all of WiFi. *)
  Alcotest.(check bool) "A's PLC route nearly full" true (res.Cc_result.rates.(0) > 17.0);
  Alcotest.(check bool) "B gets most of WiFi" true (res.Cc_result.rates.(2) > 12.0);
  Alcotest.(check bool) "A's WiFi route mostly ceded" true
    (res.Cc_result.rates.(1) < res.Cc_result.rates.(2))

let test_multi_cc_convergence_detection () =
  let g, dom = fig1 () in
  let flows = [ fig1_routes g ] in
  let p = Problem.make g dom ~flows in
  let res = Multi_cc.solve ~x_init:(routing_init g dom flows) ~slots:6000 p in
  match Cc_result.convergence_slot res with
  | None -> Alcotest.fail "never converged"
  | Some s ->
    Alcotest.(check bool) "converges well before the end" true (s < 1000);
    Alcotest.(check bool) "nonzero" true (s >= 0)

let test_multi_cc_external_airtime () =
  (* An external node saturates the single WiFi medium: EMPoWER should
     concede it and use PLC only (Section 4.3's discussion). *)
  let g =
    Multigraph.create ~n_nodes:2 ~n_techs:2
      ~edges:[ (0, 1, 0, 20.0) (* wifi *); (0, 1, 1, 20.0) (* plc *) ]
  in
  let dom = Domain.single_domain_per_tech g in
  let ext = Array.make (Multigraph.num_links g) 0.0 in
  ext.(0) <- 1.0;
  ext.(1) <- 1.0;
  let flows = [ [ Paths.of_links g [ 0 ]; Paths.of_links g [ 2 ] ] ] in
  let p = Problem.make ~external_airtime:ext g dom ~flows in
  let res = Multi_cc.solve ~x_init:(routing_init g dom flows) ~slots:8000 p in
  Alcotest.(check bool) "wifi route starved" true (res.Cc_result.rates.(0) < 1.0);
  Alcotest.(check bool) "plc route full" true (res.Cc_result.rates.(1) > 17.0)

let test_multi_cc_on_slot_callback () =
  let g, dom = fig1 () in
  let p = Problem.make g dom ~flows:[ fig1_routes g ] in
  let calls = ref 0 in
  let _ = Multi_cc.solve_tracked ~slots:50 ~on_slot:(fun _ _ -> incr calls) p in
  Alcotest.(check int) "one call per slot" 50 !calls

let test_cc_result_utility () =
  let g, dom = fig1 () in
  let p = Problem.make g dom ~flows:[ fig1_routes g ] in
  let res = Multi_cc.solve ~slots:2000 p in
  let u = Cc_result.final_utility Utility.proportional_fair res in
  Alcotest.(check bool) "utility positive" true (u > 0.0)

let prop_multi_cc_feasible_on_random_networks =
  QCheck.Test.make ~name:"controller allocations ~feasible on random networks"
    ~count:15
    QCheck.(int_bound 100000)
    (fun seed ->
      let inst = Residential.generate (Rng.create seed) in
      let g = Builder.graph inst Builder.Hybrid in
      let dom = Domain.of_instance inst Builder.Hybrid g in
      let comb = Multipath.find g dom ~src:0 ~dst:(Multigraph.n_nodes g - 1) in
      match Multipath.routes comb with
      | [] -> true
      | routes ->
        let p = Problem.make g dom ~flows:[ routes ] in
        let res = Multi_cc.solve ~slots:4000 p in
        (* Allow a small overshoot: the fixed step size hovers around
           the optimum. *)
        Problem.feasible ~slack:0.08 p res.Cc_result.rates)

let () =
  Alcotest.run "control"
    [
      ( "utility",
        [
          Alcotest.test_case "proportional fair" `Quick test_utility_proportional_fair;
          Alcotest.test_case "inverse roundtrip" `Quick test_utility_inverse_roundtrip;
          Alcotest.test_case "concavity" `Quick test_utility_concavity;
        ] );
      ( "problem",
        [
          Alcotest.test_case "structure" `Quick test_problem_structure;
          Alcotest.test_case "validation" `Quick test_problem_validation;
          Alcotest.test_case "airtime demand" `Quick test_airtime_demand;
          Alcotest.test_case "feasibility" `Quick test_feasibility;
        ] );
      ( "price",
        [
          Alcotest.test_case "airtimes" `Quick test_price_airtimes;
          Alcotest.test_case "gamma updates" `Quick test_price_gamma_updates;
          Alcotest.test_case "route costs" `Quick test_price_route_costs;
          Alcotest.test_case "slot allocates nothing" `Quick
            test_price_slot_allocates_nothing;
        ] );
      ( "alpha",
        [
          Alcotest.test_case "initial values" `Quick test_alpha_initial;
          Alcotest.test_case "halves on oscillation" `Quick
            test_alpha_halves_on_oscillation;
          Alcotest.test_case "stable keeps alpha" `Quick test_alpha_stable_rate_keeps_alpha;
        ] );
      ( "single-cc",
        [
          Alcotest.test_case "one link" `Quick test_single_cc_one_link;
          Alcotest.test_case "two flows fair" `Quick test_single_cc_two_flows_fair;
          Alcotest.test_case "rejects multipath" `Quick test_single_cc_rejects_multipath;
        ] );
      ( "multi-cc",
        [
          Alcotest.test_case "figure 1 optimum" `Quick test_multi_cc_fig1;
          Alcotest.test_case "respects delta" `Quick test_multi_cc_respects_delta;
          Alcotest.test_case "offloads under contention" `Quick
            test_multi_cc_offloads_under_contention;
          Alcotest.test_case "convergence detection" `Quick
            test_multi_cc_convergence_detection;
          Alcotest.test_case "external airtime" `Quick test_multi_cc_external_airtime;
          Alcotest.test_case "on_slot callback" `Quick test_multi_cc_on_slot_callback;
          Alcotest.test_case "result utility" `Quick test_cc_result_utility;
          QCheck_alcotest.to_alcotest prop_multi_cc_feasible_on_random_networks;
        ] );
    ]
