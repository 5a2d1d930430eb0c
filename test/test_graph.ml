(* Tests for the multigraph, the CSC-aware Dijkstra, and Yen's
   n-shortest paths. *)

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let check_float ?(eps = 1e-9) msg expected actual =
  if not (feq ~eps expected actual) then
    Alcotest.failf "%s: expected %.6f, got %.6f" msg expected actual

(* The Figure 1 network: gateway a(0), extender b(1), client c(2).
   WiFi a-b 15 Mbps, WiFi b-c 30 Mbps, PLC a-b 10 Mbps. *)
let fig1 () =
  Multigraph.create ~n_nodes:3 ~n_techs:2
    ~edges:[ (0, 1, 0, 15.0); (1, 2, 0, 30.0); (0, 1, 1, 10.0) ]

let test_create_basic () =
  let g = fig1 () in
  Alcotest.(check int) "nodes" 3 (Multigraph.n_nodes g);
  Alcotest.(check int) "techs" 2 (Multigraph.n_techs g);
  Alcotest.(check int) "links" 6 (Multigraph.num_links g);
  check_float "cap fwd" 15.0 (Multigraph.capacity g 0);
  check_float "cap bwd" 15.0 (Multigraph.capacity g 1);
  let l = Multigraph.link g 0 in
  Alcotest.(check int) "src" 0 l.Multigraph.src;
  Alcotest.(check int) "dst" 1 l.Multigraph.dst;
  Alcotest.(check int) "peer" 1 l.Multigraph.peer;
  let p = Multigraph.link g 1 in
  Alcotest.(check int) "peer src" 1 p.Multigraph.src;
  Alcotest.(check int) "peer of peer" 0 p.Multigraph.peer

let test_create_errors () =
  Alcotest.(check bool) "self-loop rejected" true
    (try
       ignore (Multigraph.create ~n_nodes:2 ~n_techs:1 ~edges:[ (0, 0, 0, 1.0) ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad tech rejected" true
    (try
       ignore (Multigraph.create ~n_nodes:2 ~n_techs:1 ~edges:[ (0, 1, 1, 1.0) ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative capacity rejected" true
    (try
       ignore (Multigraph.create ~n_nodes:2 ~n_techs:1 ~edges:[ (0, 1, 0, -1.0) ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "nan capacity rejected" true
    (try
       ignore (Multigraph.create ~n_nodes:2 ~n_techs:1 ~edges:[ (0, 1, 0, Float.nan) ]);
       false
     with Invalid_argument _ -> true)

let test_d_metric () =
  let g = fig1 () in
  check_float "d = 1/c" (1.0 /. 15.0) (Multigraph.d g 0);
  let g0 = Multigraph.create ~n_nodes:2 ~n_techs:1 ~edges:[ (0, 1, 0, 0.0) ] in
  Alcotest.(check bool) "d of dead link" true (Multigraph.d g0 0 = infinity);
  Alcotest.(check bool) "dead link unusable" false (Multigraph.usable g0 0)

let test_adjacency () =
  let g = fig1 () in
  Alcotest.(check (list int)) "out of a" [ 0; 4 ] (Multigraph.out_links g 0);
  Alcotest.(check (list int)) "out of b" [ 1; 2; 5 ] (Multigraph.out_links g 1);
  Alcotest.(check (list int)) "in of c" [ 2 ] (Multigraph.in_links g 2);
  Alcotest.(check (list int)) "a->b links" [ 0; 4 ] (Multigraph.find_links g ~src:0 ~dst:1)

let test_with_capacities () =
  let g = fig1 () in
  let caps = Multigraph.capacities g in
  caps.(0) <- 1.0;
  let g' = Multigraph.with_capacities g caps in
  check_float "updated" 1.0 (Multigraph.capacity g' 0);
  check_float "original untouched" 15.0 (Multigraph.capacity g 0);
  Alcotest.(check bool) "length checked" true
    (try
       ignore (Multigraph.with_capacities g [| 1.0 |]);
       false
     with Invalid_argument _ -> true)

let test_scale_capacities () =
  let g = fig1 () in
  (* Group 0: the WiFi edges (links 0-3), group 1: the PLC edge. *)
  let group l = (Multigraph.link g l).Multigraph.tech in
  let g' = Multigraph.scale_capacities g ~group [| 0.5; 1.0 |] in
  check_float "wifi halved" 7.5 (Multigraph.capacity g' 0);
  check_float "wifi d" (1.0 /. 7.5) (Multigraph.d g' 0);
  check_float "plc kept" 10.0 (Multigraph.capacity g' 4);
  check_float "original untouched" 15.0 (Multigraph.capacity g 0);
  check_float "wns follows the view" (1.0 /. 15.0) (Dijkstra.wns g' 1);
  List.iter
    (fun f ->
      Alcotest.(check bool) (Printf.sprintf "factor %h rejected" f) true
        (try
           ignore (Multigraph.scale_capacities g ~group [| f; 1.0 |]);
           false
         with Invalid_argument _ -> true))
    [ -0.1; 1.5; Float.nan; Float.infinity ]

let test_paths_basics () =
  let g = fig1 () in
  let p = Paths.of_links g [ 4; 2 ] in
  Alcotest.(check int) "src" 0 (Paths.src g p);
  Alcotest.(check int) "dst" 2 (Paths.dst g p);
  Alcotest.(check (list int)) "nodes" [ 0; 1; 2 ] (Paths.nodes g p);
  Alcotest.(check int) "hops" 2 (Paths.hops p);
  Alcotest.(check (list int)) "techs" [ 1; 0 ] (Paths.techs g p);
  Alcotest.(check bool) "loopless" true (Paths.is_loopless g p);
  Alcotest.(check bool) "mem" true (Paths.mem_link p 4);
  Alcotest.(check bool) "not mem" false (Paths.mem_link p 0);
  Alcotest.(check bool) "non-contiguous rejected" true
    (try
       ignore (Paths.of_links g [ 0; 0 ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "empty rejected" true
    (try
       ignore (Paths.of_links g []);
       false
     with Invalid_argument _ -> true)

(* Dijkstra on Figure 1: with the CSC, the PLC-then-WiFi route and the
   WiFi-WiFi route from a to c tie at 2/15; both are shortest. *)
let test_dijkstra_fig1 () =
  let g = fig1 () in
  match Dijkstra.shortest_path g ~src:0 ~dst:2 with
  | None -> Alcotest.fail "no path found"
  | Some (p, cost) ->
    Alcotest.(check int) "two hops" 2 (Paths.hops p);
    check_float ~eps:1e-9 "cost of shortest" (2.0 /. 15.0) cost

let test_dijkstra_csc_prefers_alternation () =
  (* Two two-hop routes of equal capacities: one WiFi-WiFi, one
     WiFi-PLC. The CSC penalizes the same-technology continuation, so
     the alternating route must win. *)
  let g =
    Multigraph.create ~n_nodes:4 ~n_techs:2
      ~edges:
        [
          (0, 1, 0, 20.0) (* wifi s-m *);
          (1, 3, 0, 20.0) (* wifi m-d *);
          (0, 2, 0, 20.0) (* wifi s-m' *);
          (2, 3, 1, 20.0) (* plc m'-d *);
        ]
  in
  match Dijkstra.shortest_path g ~src:0 ~dst:3 with
  | None -> Alcotest.fail "no path"
  | Some (p, _) ->
    Alcotest.(check (list int)) "alternating techs" [ 0; 1 ] (Paths.techs g p)

let test_dijkstra_no_csc () =
  let g =
    Multigraph.create ~n_nodes:4 ~n_techs:2
      ~edges:
        [
          (0, 1, 0, 25.0);
          (1, 3, 0, 25.0);
          (0, 2, 0, 20.0);
          (2, 3, 1, 20.0);
        ]
  in
  (* Without CSC the higher-capacity same-tech route wins; with CSC
     (wns = 1/25 at node 1) it is penalized: 2/25 + 1/25 = 0.12 vs
     2/20 = 0.1. *)
  (match Dijkstra.shortest_path ~csc:false g ~src:0 ~dst:3 with
  | Some (p, cost) ->
    Alcotest.(check (list int)) "no-CSC picks capacity" [ 0; 0 ] (Paths.techs g p);
    check_float "no-CSC cost" (2.0 /. 25.0) cost
  | None -> Alcotest.fail "no path");
  match Dijkstra.shortest_path ~csc:true g ~src:0 ~dst:3 with
  | Some (p, _) ->
    Alcotest.(check (list int)) "CSC picks alternation" [ 0; 1 ] (Paths.techs g p)
  | None -> Alcotest.fail "no path"

let test_dijkstra_unreachable () =
  let g =
    Multigraph.create ~n_nodes:4 ~n_techs:1 ~edges:[ (0, 1, 0, 10.0); (2, 3, 0, 10.0) ]
  in
  Alcotest.(check bool) "disconnected" true
    (Dijkstra.shortest_path g ~src:0 ~dst:3 = None)

let test_dijkstra_zero_capacity_avoided () =
  let g =
    Multigraph.create ~n_nodes:3 ~n_techs:1
      ~edges:[ (0, 1, 0, 10.0); (1, 2, 0, 0.0); (0, 2, 0, 5.0) ]
  in
  match Dijkstra.shortest_path g ~src:0 ~dst:2 with
  | None -> Alcotest.fail "no path"
  | Some (p, _) ->
    Alcotest.(check int) "direct route (dead relay avoided)" 1 (Paths.hops p)

let test_dijkstra_banned () =
  let g =
    Multigraph.create ~n_nodes:3 ~n_techs:1
      ~edges:[ (0, 1, 0, 10.0); (1, 2, 0, 10.0); (0, 2, 0, 1.0) ]
  in
  let constraints = Dijkstra.constraints g in
  Dijkstra.ban_link constraints 0;
  (match Dijkstra.shortest_path ~constraints g ~src:0 ~dst:2 with
  | Some (p, _) -> Alcotest.(check int) "detour via direct link" 1 (Paths.hops p)
  | None -> Alcotest.fail "no path");
  Dijkstra.reset constraints;
  Dijkstra.ban_node constraints 1;
  match Dijkstra.shortest_path ~constraints g ~src:0 ~dst:2 with
  | Some (p, _) -> Alcotest.(check int) "relay banned" 1 (Paths.hops p)
  | None -> Alcotest.fail "no path"

let test_path_cost_matches_dijkstra () =
  let g = fig1 () in
  match Dijkstra.shortest_path g ~src:0 ~dst:2 with
  | None -> Alcotest.fail "no path"
  | Some (p, cost) ->
    check_float "path_cost agrees" cost (Dijkstra.path_cost g p)

let test_wns () =
  let g = fig1 () in
  (* Node b's egress links: wifi to a (1/15), wifi to c (1/30), plc to
     a (1/10); the minimum d is 1/30. *)
  check_float "wns(b)" (1.0 /. 30.0) (Dijkstra.wns g 1);
  let g0 = Multigraph.create ~n_nodes:2 ~n_techs:1 ~edges:[ (0, 1, 0, 0.0) ] in
  Alcotest.(check bool) "wns with no usable egress" true (Dijkstra.wns g0 0 = infinity)

let test_yen_basic () =
  let g =
    Multigraph.create ~n_nodes:4 ~n_techs:1
      ~edges:
        [
          (0, 1, 0, 10.0);
          (1, 3, 0, 10.0);
          (0, 2, 0, 8.0);
          (2, 3, 0, 8.0);
          (0, 3, 0, 3.8);
        ]
  in
  let paths = Yen.k_shortest ~csc:false g ~src:0 ~dst:3 ~k:3 in
  Alcotest.(check int) "three paths" 3 (List.length paths);
  let costs = List.map snd paths in
  Alcotest.(check bool) "sorted" true
    (List.sort compare costs = costs);
  let hops = List.map (fun (p, _) -> Paths.hops p) paths in
  Alcotest.(check (list int)) "hop counts" [ 2; 2; 1 ] hops;
  (* All paths distinct and loopless. *)
  List.iter
    (fun (p, _) -> Alcotest.(check bool) "loopless" true (Paths.is_loopless g p))
    paths

let test_yen_k1_matches_dijkstra () =
  let g = fig1 () in
  let yen = Yen.k_shortest g ~src:0 ~dst:2 ~k:1 in
  match (yen, Dijkstra.shortest_path g ~src:0 ~dst:2) with
  | [ (p, c) ], Some (p', c') ->
    Alcotest.(check bool) "same path" true (p = p');
    check_float "same cost" c' c
  | _ -> Alcotest.fail "expected exactly one path"

let test_yen_fewer_than_k () =
  let g = Multigraph.create ~n_nodes:2 ~n_techs:1 ~edges:[ (0, 1, 0, 10.0) ] in
  Alcotest.(check int) "only one exists" 1
    (List.length (Yen.k_shortest g ~src:0 ~dst:1 ~k:5));
  let g2 = Multigraph.create ~n_nodes:3 ~n_techs:1 ~edges:[ (0, 1, 0, 10.0) ] in
  Alcotest.(check int) "unreachable -> empty" 0
    (List.length (Yen.k_shortest g2 ~src:0 ~dst:2 ~k:5))

let test_yen_multigraph_parallel_edges () =
  (* Two parallel technologies between the same pair are two distinct
     paths for Yen. *)
  let g = fig1 () in
  let paths = Yen.k_shortest g ~src:0 ~dst:1 ~k:5 in
  Alcotest.(check bool) "at least wifi and plc direct" true (List.length paths >= 2);
  let one_hop = List.filter (fun (p, _) -> Paths.hops p = 1) paths in
  Alcotest.(check int) "both direct links found" 2 (List.length one_hop)

(* Property: Yen's costs are consistent with path_cost, and paths are
   distinct. *)
let random_graph rng =
  let n = 4 + Rng.int rng 5 in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Rng.float rng < 0.5 then
        edges := (u, v, Rng.int rng 2, 5.0 +. Rng.uniform rng 0.0 95.0) :: !edges
    done
  done;
  Multigraph.create ~n_nodes:n ~n_techs:2 ~edges:!edges

let prop_yen_consistent =
  QCheck.Test.make ~name:"yen costs match path_cost; paths distinct and loopless"
    ~count:100
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = random_graph rng in
      let src = 0 and dst = Multigraph.n_nodes g - 1 in
      let paths = Yen.k_shortest g ~src ~dst ~k:5 in
      List.for_all
        (fun (p, c) ->
          Paths.is_loopless g p
          && Float.abs (Dijkstra.path_cost g p -. c) < 1e-9
          && Paths.src g p = src && Paths.dst g p = dst)
        paths
      &&
      let keys = List.map (fun (p, _) -> p.Paths.links) paths in
      List.length (List.sort_uniq compare keys) = List.length keys)

let prop_dijkstra_no_worse_than_yen_head =
  QCheck.Test.make ~name:"dijkstra returns the cheapest of yen's paths" ~count:100
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create (seed + 7) in
      let g = random_graph rng in
      let src = 0 and dst = Multigraph.n_nodes g - 1 in
      match (Dijkstra.shortest_path g ~src ~dst, Yen.k_shortest g ~src ~dst ~k:4) with
      | None, [] -> true
      | Some (_, c), (_, c') :: _ -> c <= c' +. 1e-9
      | Some _, [] | None, _ :: _ -> false)

let () =
  Alcotest.run "graph"
    [
      ( "multigraph",
        [
          Alcotest.test_case "create basics" `Quick test_create_basic;
          Alcotest.test_case "create errors" `Quick test_create_errors;
          Alcotest.test_case "d metric" `Quick test_d_metric;
          Alcotest.test_case "adjacency" `Quick test_adjacency;
          Alcotest.test_case "with_capacities" `Quick test_with_capacities;
          Alcotest.test_case "scale_capacities" `Quick test_scale_capacities;
        ] );
      ( "paths",
        [ Alcotest.test_case "basics" `Quick test_paths_basics ] );
      ( "dijkstra",
        [
          Alcotest.test_case "figure-1 shortest" `Quick test_dijkstra_fig1;
          Alcotest.test_case "CSC prefers alternation" `Quick
            test_dijkstra_csc_prefers_alternation;
          Alcotest.test_case "csc on/off" `Quick test_dijkstra_no_csc;
          Alcotest.test_case "unreachable" `Quick test_dijkstra_unreachable;
          Alcotest.test_case "zero capacity avoided" `Quick
            test_dijkstra_zero_capacity_avoided;
          Alcotest.test_case "banned links/nodes" `Quick test_dijkstra_banned;
          Alcotest.test_case "path_cost agrees" `Quick test_path_cost_matches_dijkstra;
          Alcotest.test_case "wns" `Quick test_wns;
        ] );
      ( "yen",
        [
          Alcotest.test_case "basic 3 paths" `Quick test_yen_basic;
          Alcotest.test_case "k=1 matches dijkstra" `Quick test_yen_k1_matches_dijkstra;
          Alcotest.test_case "fewer than k" `Quick test_yen_fewer_than_k;
          Alcotest.test_case "parallel technologies" `Quick
            test_yen_multigraph_parallel_edges;
          QCheck_alcotest.to_alcotest prop_yen_consistent;
          QCheck_alcotest.to_alcotest prop_dijkstra_no_worse_than_yen_head;
        ] );
    ]
