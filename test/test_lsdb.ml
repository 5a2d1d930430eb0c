(* Tests for the link-state control plane: LSA wire format, database
   freshness rules, flooding convergence, and multigraph
   reconstruction. *)

let check_float ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.6f, got %.6f" msg expected actual

let entry n t c = { Lsa.neighbor = n; tech = t; capacity_mbps = c }

(* --- Lsa --- *)

let test_lsa_roundtrip () =
  let lsa =
    Lsa.make ~origin:7 ~seq:42 [ entry 3 0 55.5; entry 9 1 12.345 ]
  in
  let lsa' = Lsa.decode (Lsa.encode lsa) in
  Alcotest.(check bool) "roundtrip" true (Lsa.equal lsa lsa');
  Alcotest.(check int) "size" (8 + 16) (Lsa.size lsa);
  Alcotest.(check int) "encoded length" (Lsa.size lsa) (Bytes.length (Lsa.encode lsa))

let test_lsa_fragment_roundtrip () =
  let lsa = Lsa.make ~fragment:3 ~origin:1 ~seq:5 [ entry 2 0 10.0 ] in
  let lsa' = Lsa.decode (Lsa.encode lsa) in
  Alcotest.(check int) "fragment" 3 lsa'.Lsa.fragment

let test_lsa_kbps_quantization () =
  let lsa = Lsa.make ~origin:0 ~seq:1 [ entry 1 0 10.0001234 ] in
  let lsa' = Lsa.decode (Lsa.encode lsa) in
  (match lsa'.Lsa.links with
  | [ e ] -> check_float ~eps:0.001 "kbit/s precision" 10.0 e.Lsa.capacity_mbps
  | _ -> Alcotest.fail "one entry");
  Alcotest.(check bool) "wire-precision equality" true (Lsa.equal lsa lsa')

let test_lsa_validation () =
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "too many links" true
    (bad (fun () -> Lsa.make ~origin:0 ~seq:0 (List.init 32 (fun i -> entry i 0 1.0))));
  Alcotest.(check bool) "negative capacity" true
    (bad (fun () -> Lsa.make ~origin:0 ~seq:0 [ entry 1 0 (-1.0) ]));
  Alcotest.(check bool) "bad origin" true
    (bad (fun () -> Lsa.make ~origin:(-1) ~seq:0 []));
  Alcotest.(check bool) "truncated decode" true
    (bad (fun () -> Lsa.decode (Bytes.make 7 '\000')));
  Alcotest.(check bool) "length mismatch" true
    (bad (fun () ->
         let b = Lsa.encode (Lsa.make ~origin:0 ~seq:0 [ entry 1 0 1.0 ]) in
         Lsa.decode (Bytes.sub b 0 (Bytes.length b - 1))))

let prop_lsa_roundtrip =
  QCheck.Test.make ~name:"lsa roundtrip" ~count:200
    QCheck.(
      triple (int_bound 0xFFFF) (int_bound 1000)
        (list_of_size Gen.(int_range 0 31)
           (triple (int_bound 0xFFFF) (int_bound 3) (float_range 0.0 1000.0))))
    (fun (origin, seq, raw) ->
      let links = List.map (fun (n, t, c) -> entry n t c) raw in
      let lsa = Lsa.make ~origin ~seq links in
      Lsa.equal lsa (Lsa.decode (Lsa.encode lsa)))

(* --- Lsdb --- *)

let test_lsdb_freshness () =
  let db = Lsdb.create () in
  let v1 = Lsa.make ~origin:3 ~seq:1 [ entry 1 0 10.0 ] in
  let v2 = Lsa.make ~origin:3 ~seq:2 [ entry 1 0 20.0 ] in
  Alcotest.(check bool) "new installed" true (Lsdb.insert db ~now:0.0 v1 = `Installed);
  Alcotest.(check bool) "duplicate" true (Lsdb.insert db ~now:0.1 v1 = `Duplicate);
  Alcotest.(check bool) "fresher installed" true (Lsdb.insert db ~now:0.2 v2 = `Installed);
  Alcotest.(check bool) "stale dropped" true (Lsdb.insert db ~now:0.3 v1 = `Stale);
  match Lsdb.lookup db ~origin:3 with
  | [ stored ] -> Alcotest.(check int) "kept v2" 2 stored.Lsa.seq
  | _ -> Alcotest.fail "expected one fragment"

let test_lsdb_fragments_coexist () =
  let db = Lsdb.create () in
  ignore (Lsdb.insert db ~now:0.0 (Lsa.make ~fragment:0 ~origin:5 ~seq:1 [ entry 1 0 1.0 ]));
  ignore (Lsdb.insert db ~now:0.0 (Lsa.make ~fragment:1 ~origin:5 ~seq:1 [ entry 2 0 2.0 ]));
  Alcotest.(check int) "two fragments" 2 (List.length (Lsdb.lookup db ~origin:5))

let test_lsdb_purge () =
  let db = Lsdb.create () in
  ignore (Lsdb.insert db ~now:0.0 (Lsa.make ~origin:1 ~seq:1 [ entry 0 0 1.0 ]));
  ignore (Lsdb.insert db ~now:50.0 (Lsa.make ~origin:2 ~seq:1 [ entry 0 0 1.0 ]));
  Alcotest.(check int) "one expired" 1 (Lsdb.purge db ~now:60.0 ~max_age:30.0);
  Alcotest.(check int) "one left" 1 (List.length (Lsdb.entries db))

let test_lsdb_graph_reconstruction () =
  let db = Lsdb.create () in
  (* Both endpoints advertise the same wifi link with different
     estimates; one also advertises a plc link. *)
  ignore (Lsdb.insert db ~now:0.0 (Lsa.make ~origin:0 ~seq:1 [ entry 1 0 10.0 ]));
  ignore
    (Lsdb.insert db ~now:0.0
       (Lsa.make ~origin:1 ~seq:1 [ entry 0 0 14.0; entry 0 1 30.0 ]));
  let g = Lsdb.graph db ~n_nodes:2 ~n_techs:2 in
  Alcotest.(check int) "two physical edges" 4 (Multigraph.num_links g);
  (* The doubly-advertised link is averaged. *)
  let wifi =
    List.find (fun l -> (Multigraph.link g l).Multigraph.tech = 0) (Multigraph.out_links g 0)
  in
  check_float ~eps:1e-6 "averaged estimate" 12.0 (Multigraph.capacity g wifi)

let test_lsdb_graph_ignores_garbage () =
  let db = Lsdb.create () in
  ignore
    (Lsdb.insert db ~now:0.0
       (Lsa.make ~origin:0 ~seq:1
          [ entry 99 0 10.0 (* out-of-range node *); entry 1 7 10.0 (* bad tech *) ]));
  let g = Lsdb.graph db ~n_nodes:2 ~n_techs:2 in
  Alcotest.(check int) "nothing poisoned" 0 (Multigraph.num_links g)

(* --- Flooding --- *)

let line_neighbors n u =
  List.filter (fun v -> v >= 0 && v < n) [ u - 1; u + 1 ]

let test_flood_line_convergence () =
  let n = 8 in
  let dbs = Array.init n (fun _ -> Lsdb.create ()) in
  let lsa = Lsa.make ~origin:0 ~seq:1 [ entry 1 0 10.0 ] in
  let stats =
    Lsdb.Flood.propagate ~neighbors:(line_neighbors n) ~dbs ~from:0 lsa
  in
  (* Every node has it; rounds = diameter; each node forwards once. *)
  Array.iter
    (fun db ->
      Alcotest.(check int) "received" 1 (List.length (Lsdb.lookup db ~origin:0)))
    dbs;
  (* diameter rounds to reach everyone, plus at most one echo round
     in which duplicates die out *)
  Alcotest.(check bool) "rounds ~ diameter" true
    (stats.Lsdb.Flood.rounds >= n - 1 && stats.Lsdb.Flood.rounds <= n);
  Alcotest.(check bool) "at most 2 sends per node" true
    (stats.Lsdb.Flood.messages <= 2 * n)

let test_flood_does_not_cross_partition () =
  let n = 6 in
  (* Two components: 0-1-2 and 3-4-5. *)
  let neighbors u =
    List.filter (fun v -> v >= 0 && v < n && v / 3 = u / 3) [ u - 1; u + 1 ]
  in
  let dbs = Array.init n (fun _ -> Lsdb.create ()) in
  let lsa = Lsa.make ~origin:0 ~seq:1 [ entry 1 0 10.0 ] in
  ignore (Lsdb.Flood.propagate ~neighbors ~dbs ~from:0 lsa);
  Alcotest.(check int) "reached own side" 1 (List.length (Lsdb.lookup dbs.(2) ~origin:0));
  Alcotest.(check int) "not the other side" 0
    (List.length (Lsdb.lookup dbs.(4) ~origin:0))

(* --- Re-flood edge cases (the races the recovery subsystem's
   route re-discovery leans on) --- *)

let test_insert_out_of_order_race () =
  let db = Lsdb.create () in
  let v k c = Lsa.make ~origin:4 ~seq:k [ entry 1 0 c ] in
  Alcotest.(check bool) "seq 3 installs" true
    (Lsdb.insert db ~now:0.0 (v 3 30.0) = `Installed);
  (* A delayed older advertisement loses the race outright — dropped,
     not merged, so a dead node's pre-crash state cannot reappear
     behind a fresher generation. *)
  Alcotest.(check bool) "late seq 2 is stale" true
    (Lsdb.insert db ~now:0.1 (v 2 20.0) = `Stale);
  (* The same generation arriving again (e.g. over a second
     interface) is suppressed... *)
  Alcotest.(check bool) "seq 3 again is duplicate" true
    (Lsdb.insert db ~now:0.2 (v 3 30.0) = `Duplicate);
  (* ...and suppression is by sequence number, not content: an
     equal-seq LSA with a different payload is still a duplicate
     (OSPF-style; content changes require a new sequence). *)
  Alcotest.(check bool) "equal-seq different payload suppressed" true
    (Lsdb.insert db ~now:0.3 (v 3 99.0) = `Duplicate);
  Alcotest.(check bool) "newer still wins afterwards" true
    (Lsdb.insert db ~now:0.4 (v 4 40.0) = `Installed);
  match Lsdb.lookup db ~origin:4 with
  | [ l ] ->
    Alcotest.(check int) "kept seq 4" 4 l.Lsa.seq;
    (match l.Lsa.links with
    | [ e ] -> check_float "winner's payload kept" 40.0 e.Lsa.capacity_mbps
    | _ -> Alcotest.fail "one entry")
  | _ -> Alcotest.fail "one fragment"

let test_flood_duplicate_suppression_across_interfaces () =
  (* A hybrid node hears the same LSA once per medium. Model two
     parallel interfaces by listing every neighbor twice: each node
     receives every flooded LSA twice, installs it once, and forwards
     it once — so the double-interface flood converges in the same
     rounds with exactly double the transmissions, not exponentially
     more. *)
  let n = 8 in
  let doubled u = line_neighbors n u @ line_neighbors n u in
  let flood neighbors =
    let dbs = Array.init n (fun _ -> Lsdb.create ()) in
    let lsa = Lsa.make ~origin:0 ~seq:1 [ entry 1 0 10.0 ] in
    let stats = Lsdb.Flood.propagate ~neighbors ~dbs ~from:0 lsa in
    (dbs, stats)
  in
  let dbs2, stats2 = flood doubled in
  let _, stats1 = flood (line_neighbors n) in
  Array.iter
    (fun db ->
      Alcotest.(check int) "installed exactly once" 1
        (List.length (Lsdb.lookup db ~origin:0)))
    dbs2;
  Alcotest.(check int) "same rounds as single-interface" stats1.Lsdb.Flood.rounds
    stats2.Lsdb.Flood.rounds;
  Alcotest.(check int) "exactly 2x transmissions" (2 * stats1.Lsdb.Flood.messages)
    stats2.Lsdb.Flood.messages

(* --- Recovery re-discovery over the LSDB --- *)

(* A 4-node diamond: 0-1-3 and 0-2-3, one tech. *)
let diamond () =
  Multigraph.create ~n_nodes:4 ~n_techs:1
    ~edges:[ (0, 1, 0, 10.0); (1, 3, 0, 10.0); (0, 2, 0, 10.0); (2, 3, 0, 10.0) ]

let caps_of g = Array.init (Multigraph.num_links g) (Multigraph.capacity g)

let kill_node g caps v =
  List.iter
    (fun l -> caps.(l) <- 0.0)
    (Multigraph.out_links g v @ Multigraph.in_links g v)

let test_reflood_drops_dead_branch () =
  let g = diamond () in
  let dom = Domain.single_domain_per_tech g in
  let caps = caps_of g in
  kill_node g caps 1;
  let comb, stats = Recovery.replan g dom ~caps ~src:0 ~dst:3 in
  Alcotest.(check bool) "re-discovery found a combination" true
    (comb.Multipath.paths <> []);
  Alcotest.(check bool) "flooding did work" true (stats.Lsdb.Flood.messages > 0);
  (* No surviving route may touch the dead node, even though its
     stale seq-1 advertisement is still in every database. *)
  List.iter
    (fun (p, _) ->
      List.iter
        (fun l ->
          let lk = Multigraph.link g l in
          if lk.Multigraph.src = 1 || lk.Multigraph.dst = 1 then
            Alcotest.failf "stale advertisement resurrected link %d" l)
        p.Paths.links)
    comb.Multipath.paths

let test_reflood_full_partition_is_empty () =
  let g = diamond () in
  let dom = Domain.single_domain_per_tech g in
  let caps = caps_of g in
  kill_node g caps 3;
  let comb, _ = Recovery.replan g dom ~caps ~src:0 ~dst:3 in
  Alcotest.(check bool) "severed destination yields no routes" true
    (comb.Multipath.paths = [] && comb.Multipath.total_rate = 0.0)

let test_survivors_per_route () =
  let g = diamond () in
  let caps = caps_of g in
  (* The two disjoint routes of the diamond. *)
  let route_via mid =
    let l1 = List.hd (Multigraph.find_links g ~src:0 ~dst:mid) in
    let l2 = List.hd (Multigraph.find_links g ~src:mid ~dst:3) in
    Paths.of_links g [ l1; l2 ]
  in
  let routes = [ route_via 1; route_via 2 ] in
  let surv = Recovery.survivors g ~caps ~src:0 ~routes in
  Alcotest.(check bool) "both alive initially" true (surv.(0) && surv.(1));
  kill_node g caps 1;
  let surv = Recovery.survivors g ~caps ~src:0 ~routes in
  Alcotest.(check bool) "only the untouched branch survives" true
    ((not surv.(0)) && surv.(1));
  kill_node g caps 3;
  let surv = Recovery.survivors g ~caps ~src:0 ~routes in
  Alcotest.(check bool) "full severance: none survive" true
    ((not surv.(0)) && not surv.(1))

let test_survivors_allocation () =
  (* A route death asks [survivors] once per dead route, so it must not
     cost a simulated flood (about 400 k minor words on the testbed):
     the testbed with node 6 down, seen from node 0, over the 0->12
     routes, under 40 k words per call. *)
  let inst = Testbed.generate (Rng.create 4242) in
  let g = Builder.graph inst Builder.Hybrid in
  let dom = Domain.of_instance inst Builder.Hybrid g in
  let routes = Multipath.routes (Multipath.find g dom ~src:0 ~dst:12) in
  let caps = caps_of g in
  kill_node g caps 6;
  ignore (Recovery.survivors g ~caps ~src:0 ~routes);
  let calls = 5 in
  let w0 = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (Recovery.survivors g ~caps ~src:0 ~routes))
  done;
  let per_call = (Gc.minor_words () -. w0) /. float_of_int calls in
  if per_call >= 40_000.0 then
    Alcotest.failf "survivors allocated %.0f minor words per call" per_call

(* --- Control plane end-to-end --- *)

let test_converged_view_matches_truth () =
  let rng = Rng.create 5 in
  let inst = Residential.generate rng in
  let g = Builder.graph inst Builder.Hybrid in
  let view, stats = Control_plane.converged_view (Rng.create 1) g ~viewer:0 in
  (* Same link structure (kbit/s wire precision). *)
  Alcotest.(check int) "same number of links" (Multigraph.num_links g)
    (Multigraph.num_links view);
  Alcotest.(check bool) "flooding did work" true (stats.Lsdb.Flood.messages > 0);
  (* Routing decisions on the reconstructed view match the truth. *)
  let routes_on gr = Single_path.route gr ~src:0 ~dst:9 in
  match (routes_on g, routes_on view) with
  | Some (p, _), Some (p', _) ->
    Alcotest.(check bool) "same shortest path" true
      (Paths.nodes g p = Paths.nodes view p')
  | None, None -> ()
  | _ -> Alcotest.fail "connectivity differs"

let test_converged_view_with_noise () =
  let rng = Rng.create 6 in
  let inst = Residential.generate rng in
  let g = Builder.graph inst Builder.Hybrid in
  let view, _ = Control_plane.converged_view ~noise:0.05 (Rng.create 2) g ~viewer:3 in
  Alcotest.(check int) "structure preserved" (Multigraph.num_links g)
    (Multigraph.num_links view);
  (* Capacities within ~20% of truth (5% noise, two estimates averaged). *)
  let ok = ref true in
  for l = 0 to Multigraph.num_links g - 1 do
    let t = Multigraph.capacity g l in
    if t > 0.0 then begin
      (* Find the matching link in the view by endpoints and tech. *)
      let lk = Multigraph.link g l in
      let candidates =
        List.filter
          (fun l' -> (Multigraph.link view l').Multigraph.tech = lk.Multigraph.tech)
          (Multigraph.find_links view ~src:lk.Multigraph.src ~dst:lk.Multigraph.dst)
      in
      match candidates with
      | [ l' ] ->
        if Float.abs (Multigraph.capacity view l' -. t) > 0.25 *. t then ok := false
      | _ -> ok := false
    end
  done;
  Alcotest.(check bool) "estimates near truth" true !ok

let test_advertise_chunking () =
  (* A star node with 40 links must emit two fragments. *)
  let edges = List.init 40 (fun i -> (0, i + 1, 0, 10.0)) in
  let g = Multigraph.create ~n_nodes:41 ~n_techs:1 ~edges in
  let lsas = Control_plane.advertise (Rng.create 1) g ~node:0 in
  Alcotest.(check int) "two fragments" 2 (List.length lsas);
  let total = List.fold_left (fun acc l -> acc + List.length l.Lsa.links) 0 lsas in
  Alcotest.(check int) "all links advertised" 40 total

let () =
  Alcotest.run "lsdb"
    [
      ( "lsa",
        [
          Alcotest.test_case "roundtrip" `Quick test_lsa_roundtrip;
          Alcotest.test_case "fragment" `Quick test_lsa_fragment_roundtrip;
          Alcotest.test_case "quantization" `Quick test_lsa_kbps_quantization;
          Alcotest.test_case "validation" `Quick test_lsa_validation;
          QCheck_alcotest.to_alcotest prop_lsa_roundtrip;
        ] );
      ( "lsdb",
        [
          Alcotest.test_case "freshness rules" `Quick test_lsdb_freshness;
          Alcotest.test_case "fragments coexist" `Quick test_lsdb_fragments_coexist;
          Alcotest.test_case "purge" `Quick test_lsdb_purge;
          Alcotest.test_case "graph reconstruction" `Quick
            test_lsdb_graph_reconstruction;
          Alcotest.test_case "garbage ignored" `Quick test_lsdb_graph_ignores_garbage;
        ] );
      ( "flooding",
        [
          Alcotest.test_case "line convergence" `Quick test_flood_line_convergence;
          Alcotest.test_case "partition" `Quick test_flood_does_not_cross_partition;
        ] );
      ( "re-flood",
        [
          Alcotest.test_case "out-of-order seq races" `Quick
            test_insert_out_of_order_race;
          Alcotest.test_case "duplicate suppression across interfaces" `Quick
            test_flood_duplicate_suppression_across_interfaces;
          Alcotest.test_case "dead branch dropped" `Quick
            test_reflood_drops_dead_branch;
          Alcotest.test_case "full partition empty" `Quick
            test_reflood_full_partition_is_empty;
          Alcotest.test_case "per-route survivors" `Quick test_survivors_per_route;
          Alcotest.test_case "survivors allocates little on the testbed" `Quick
            test_survivors_allocation;
        ] );
      ( "control-plane",
        [
          Alcotest.test_case "view matches truth" `Quick
            test_converged_view_matches_truth;
          Alcotest.test_case "noisy estimates" `Quick test_converged_view_with_noise;
          Alcotest.test_case "chunking" `Quick test_advertise_chunking;
        ] );
    ]
