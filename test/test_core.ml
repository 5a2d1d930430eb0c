(* Tests for the Empower facade and the traffic workloads. *)

let check_float ?(eps = 1e-6) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.6f, got %.6f" msg expected actual

let fig1_net () =
  Empower.of_edges ~n_nodes:3 ~n_techs:2
    [ (0, 1, 0, 15.0); (1, 2, 0, 30.0); (0, 1, 1, 10.0) ]

let test_of_edges () =
  let net = fig1_net () in
  Alcotest.(check int) "nodes" 3 (Multigraph.n_nodes net.Empower.g);
  Alcotest.(check int) "links" 6 (Multigraph.num_links net.Empower.g)

let test_of_instance () =
  let inst = Residential.generate (Rng.create 1) in
  let net = Empower.of_instance inst Builder.Hybrid in
  Alcotest.(check int) "nodes" 10 (Multigraph.n_nodes net.Empower.g);
  Alcotest.(check int) "domains cover links" (Multigraph.num_links net.Empower.g)
    (Domain.num_links net.Empower.dom)

let test_plan () =
  let net = fig1_net () in
  let plan = Empower.plan net ~src:0 ~dst:2 in
  Alcotest.(check int) "two routes" 2
    (List.length plan.Empower.combination.Multipath.paths);
  check_float ~eps:0.01 "combined rate" (50.0 /. 3.0)
    plan.Empower.combination.Multipath.total_rate

let test_allocate_fig1 () =
  let net = fig1_net () in
  let alloc = Empower.allocate net ~flows:[ (0, 2) ] in
  check_float ~eps:0.4 "flow rate" (50.0 /. 3.0) alloc.Empower.flow_rates.(0);
  Alcotest.(check int) "route rates per flow" 2
    (Array.length alloc.Empower.route_rates.(0));
  check_float ~eps:0.5 "rates sum to flow rate" alloc.Empower.flow_rates.(0)
    (Array.fold_left ( +. ) 0.0 alloc.Empower.route_rates.(0))

let test_allocate_multi_flow () =
  let net = fig1_net () in
  (* Two flows on the same endpoints share fairly. *)
  let alloc = Empower.allocate net ~flows:[ (0, 2); (0, 2) ] in
  let a = alloc.Empower.flow_rates.(0) and b = alloc.Empower.flow_rates.(1) in
  Alcotest.(check bool) "roughly fair" true (Float.abs (a -. b) < 2.0);
  Alcotest.(check bool) "sum near capacity" true (a +. b > 14.0 && a +. b < 18.0)

let test_allocate_unreachable_flow () =
  let net =
    Empower.of_edges ~n_nodes:3 ~n_techs:1 [ (0, 1, 0, 10.0) ]
  in
  let alloc = Empower.allocate net ~flows:[ (0, 2) ] in
  check_float "zero rate" 0.0 alloc.Empower.flow_rates.(0);
  Alcotest.(check int) "empty plan" 0
    (List.length alloc.Empower.plans.(0).Empower.combination.Multipath.paths)

let test_allocate_delta () =
  let net = fig1_net () in
  let alloc = Empower.allocate ~delta:0.3 net ~flows:[ (0, 2) ] in
  Alcotest.(check bool) "margin respected" true
    (alloc.Empower.flow_rates.(0) < 13.0)

let test_flow_specs_and_simulate () =
  let net = fig1_net () in
  let alloc = Empower.allocate net ~flows:[ (0, 2) ] in
  let specs = Empower.flow_specs_of_allocation alloc in
  Alcotest.(check int) "one spec" 1 (List.length specs);
  let res = Empower.simulate ~seed:5 net ~flows:specs ~duration:20.0 in
  let gp = float_of_int res.Engine.flows.(0).Engine.received_bytes *. 8e-6 /. 20.0 in
  Alcotest.(check bool) "simulation delivers" true (gp > 12.0)

let test_flow_specs_skip_unreachable () =
  let net = Empower.of_edges ~n_nodes:3 ~n_techs:1 [ (0, 1, 0, 10.0) ] in
  let alloc = Empower.allocate net ~flows:[ (0, 2) ] in
  Alcotest.(check int) "no specs" 0
    (List.length (Empower.flow_specs_of_allocation alloc))

(* --- Set-up pins --- *)

(* Digests recorded before routing and the controller were optimized
   (class-grouped duals, memoized switching cost, single-pass
   update()); the Multipath.find pins before routing moved to flat
   arrays (CSR Dijkstra, stamp bans in Yen, per-class update()).
   Set-up must stay bit-identical: every float of every plan, route
   rate and controller trace goes into the digest. *)

let md5_marshal v =
  Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

let testbed_net =
  lazy (Empower.of_instance (Testbed.generate (Rng.create 4242)) Builder.Hybrid)

let test_allocate_testbed_pinned () =
  let net = Lazy.force testbed_net in
  let pin flows digest =
    let alloc = Empower.allocate ~delta:0.05 net ~flows in
    let name =
      String.concat " " (List.map (fun (s, d) -> Printf.sprintf "%d->%d" s d) flows)
    in
    Alcotest.(check string) ("allocation " ^ name) digest (md5_marshal alloc)
  in
  pin [ (0, 12) ] "d743bee6fba5e0cb115ebe1cede425e3";
  pin [ (5, 17) ] "c55321d824cc93ab2f231ca23c52f369";
  pin [ (3, 17); (8, 21) ] "82e4032a3dce6db6e4d0f266c365396f";
  pin [ (14, 4); (1, 9) ] "d6946488f82164fa8f3943f1b0f08196";
  pin [ (0, 12); (3, 17); (8, 21) ] "0c15b198e6a3309c8da09147037dc514";
  pin [ (2, 19); (11, 6); (20, 7) ] "8782570f2abc3ee108202dea4a5fb5c8"

let test_evaluate_pinned () =
  let noisy =
    { Schemes.default_options with Schemes.delta = 0.05; estimate_noise = 0.1 }
  in
  let pin name inst ?opts ~seed scheme flows digest =
    let rates = Schemes.evaluate ?opts (Rng.create seed) inst scheme ~flows in
    Alcotest.(check string) name digest (md5_marshal rates)
  in
  List.iter
    (fun (seed, d_emp, d_mw, d_noisy) ->
      let inst = Residential.generate (Rng.create seed) in
      let tag = Printf.sprintf "residential %d" seed in
      pin (tag ^ " empower") inst ~seed Schemes.Empower [ (0, 9); (3, 6) ] d_emp;
      pin (tag ^ " mp-wifi") inst ~seed Schemes.Mp_wifi [ (0, 9) ] d_mw;
      pin (tag ^ " noisy") inst ~opts:noisy ~seed Schemes.Empower [ (1, 8) ] d_noisy)
    [
      ( 1,
        "97819c20410b99e5a5923aa4bcad5ef8",
        "f4af6d094b8c699b28be6813ee3fb979",
        "d59722421b0f4a166161047164e22229" );
      ( 7,
        "7083bde7ddfc71afe6396333e3ca16eb",
        "e9064aa8d63c0fabcfae925b653f98fa",
        "c4b7eb560cb842e433c3cbf0ac69fd02" );
    ];
  List.iter
    (fun (seed, d_emp, d_mw) ->
      let inst = Enterprise.generate (Rng.create seed) in
      let tag = Printf.sprintf "enterprise %d" seed in
      pin (tag ^ " empower") inst ~seed Schemes.Empower
        [ (0, 15); (4, 12); (7, 19) ]
        d_emp;
      pin (tag ^ " mp-mwifi") inst ~seed Schemes.Mp_mwifi [ (2, 11) ] d_mw)
    [
      (3, "d1a31915e77a71b0ca17af1aece62e23", "f98bcc258f2c91ccf1c00bc0c11583ec");
      (11, "b60754b9fb04965ea83b9502742f04a4", "feec69c05dc3dc296f7428f7ab7889e3");
    ]

let test_multipath_pinned () =
  (* Multipath.find on 12 seeded pairs per topology; every route, rate
     and tree statistic goes into the digest. *)
  let pin name net ~seed digest =
    let n = Multigraph.n_nodes net.Empower.g in
    let rng = Rng.create seed in
    let pairs =
      List.init 12 (fun _ ->
          let src = Rng.int rng n in
          (src, (src + 1 + Rng.int rng (n - 1)) mod n))
    in
    let combos =
      List.map
        (fun (src, dst) -> Multipath.find net.Empower.g net.Empower.dom ~src ~dst)
        pairs
    in
    Alcotest.(check string) ("multipath " ^ name) digest (md5_marshal combos)
  in
  pin "testbed" (Lazy.force testbed_net) ~seed:31 "eb755ea9f354ab97efe7f1552747d214";
  pin "residential 1"
    (Empower.of_instance (Residential.generate (Rng.create 1)) Builder.Hybrid)
    ~seed:32 "56025a8cd0d6a2d4cdd36f08615e31c1";
  pin "enterprise 3"
    (Empower.of_instance (Enterprise.generate (Rng.create 3)) Builder.Hybrid)
    ~seed:33 "04fa8391c0e17905eab396ae1f6a7872"

let test_single_cc_testbed_pinned () =
  (* The single-path controller on the primary routes of three
     concurrent testbed flows, trace included. *)
  let net = Lazy.force testbed_net in
  let g = net.Empower.g and dom = net.Empower.dom in
  let primary (src, dst) =
    match Dijkstra.shortest_path g ~src ~dst with
    | Some (p, _) -> [ p ]
    | None -> Alcotest.failf "no route %d -> %d" src dst
  in
  let flows = List.map primary [ (0, 12); (3, 17); (8, 21) ] in
  let res = Single_cc.solve (Problem.make ~delta:0.05 g dom ~flows) in
  Alcotest.(check string) "single-path controller" "a969d9a5cec6a9ce919fb85110edd7a7"
    (md5_marshal res)

(* --- Workload --- *)

let test_workload_describe () =
  Alcotest.(check string) "saturated" "saturated UDP" (Workload.describe Workload.Saturated);
  Alcotest.(check bool) "file mentions size" true
    (String.length (Workload.describe (Workload.File { bytes = 5_000_000 })) > 0)

let test_workload_total_bytes () =
  Alcotest.(check (option int)) "saturated" None (Workload.total_bytes Workload.Saturated);
  Alcotest.(check (option int)) "file" (Some 100)
    (Workload.total_bytes (Workload.File { bytes = 100 }));
  Alcotest.(check (option int)) "poisson" (Some 500)
    (Workload.total_bytes
       (Workload.Poisson_files { bytes = 100; mean_gap_s = 1.0; count = 5 }))

let test_workload_arrivals () =
  let rng = Rng.create 3 in
  let times =
    Workload.arrival_times rng
      (Workload.Poisson_files { bytes = 1; mean_gap_s = 10.0; count = 50 })
  in
  Alcotest.(check int) "count" 50 (List.length times);
  let rec increasing = function
    | a :: (b :: _ as tl) -> a <= b && increasing tl
    | _ -> true
  in
  Alcotest.(check bool) "sorted" true (increasing times);
  (* Mean gap close to 10. *)
  let last = List.nth times 49 in
  Alcotest.(check bool) "mean gap plausible" true (last > 250.0 && last < 900.0)

let () =
  Alcotest.run "core"
    [
      ( "network",
        [
          Alcotest.test_case "of_edges" `Quick test_of_edges;
          Alcotest.test_case "of_instance" `Quick test_of_instance;
        ] );
      ( "facade",
        [
          Alcotest.test_case "plan" `Quick test_plan;
          Alcotest.test_case "allocate fig1" `Quick test_allocate_fig1;
          Alcotest.test_case "allocate multi-flow" `Quick test_allocate_multi_flow;
          Alcotest.test_case "allocate unreachable" `Quick
            test_allocate_unreachable_flow;
          Alcotest.test_case "allocate with delta" `Quick test_allocate_delta;
          Alcotest.test_case "specs + simulate" `Quick test_flow_specs_and_simulate;
          Alcotest.test_case "specs skip unreachable" `Quick
            test_flow_specs_skip_unreachable;
        ] );
      ( "set-up pins",
        [
          Alcotest.test_case "allocate testbed pinned" `Quick
            test_allocate_testbed_pinned;
          Alcotest.test_case "evaluate pinned" `Quick test_evaluate_pinned;
          Alcotest.test_case "multipath pinned" `Quick test_multipath_pinned;
          Alcotest.test_case "single-path controller pinned" `Quick
            test_single_cc_testbed_pinned;
        ] );
      ( "workload",
        [
          Alcotest.test_case "describe" `Quick test_workload_describe;
          Alcotest.test_case "total bytes" `Quick test_workload_total_bytes;
          Alcotest.test_case "poisson arrivals" `Quick test_workload_arrivals;
        ] );
    ]
