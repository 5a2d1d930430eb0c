(* Tests for interference domains and maximal-clique enumeration. *)

let test_single_domain_per_tech () =
  let g =
    Multigraph.create ~n_nodes:4 ~n_techs:2
      ~edges:[ (0, 1, 0, 10.0); (2, 3, 0, 10.0); (0, 1, 1, 10.0) ]
  in
  let dom = Domain.single_domain_per_tech g in
  (* Same tech, even far apart: interfere. *)
  Alcotest.(check bool) "wifi-wifi" true (Domain.interferes dom 0 2);
  (* Different techs never interfere. *)
  Alcotest.(check bool) "wifi-plc" false (Domain.interferes dom 0 4);
  (* Self and peer always interfere. *)
  Alcotest.(check bool) "self" true (Domain.interferes dom 0 0);
  Alcotest.(check bool) "peer" true (Domain.interferes dom 0 1);
  Alcotest.(check int) "num links" 6 (Domain.num_links dom)

let test_domain_contents () =
  let g =
    Multigraph.create ~n_nodes:3 ~n_techs:2
      ~edges:[ (0, 1, 0, 15.0); (1, 2, 0, 30.0); (0, 1, 1, 10.0) ]
  in
  let dom = Domain.single_domain_per_tech g in
  Alcotest.(check (array int)) "wifi domain" [| 0; 1; 2; 3 |] (Domain.domain dom 0);
  Alcotest.(check (array int)) "plc domain" [| 4; 5 |] (Domain.domain dom 4)

let test_standard_same_node_interferes () =
  (* Two WiFi links sharing a node interfere regardless of distance
     scaling. *)
  let g =
    Multigraph.create ~n_nodes:3 ~n_techs:1 ~edges:[ (0, 1, 0, 10.0); (1, 2, 0, 10.0) ]
  in
  let positions =
    [| { Geometry.x = 0.0; y = 0.0 }; { Geometry.x = 30.0; y = 0.0 };
       { Geometry.x = 60.0; y = 0.0 } |]
  in
  let dom =
    Domain.standard ~cs_factor:0.1 g
      ~techs:[| Technology.wifi ~index:0 ~channel:1 |]
      ~positions ~panels:[| 0; 0; 0 |]
  in
  Alcotest.(check bool) "shared node" true (Domain.interferes dom 0 2)

let test_standard_carrier_sense_range () =
  (* Disjoint WiFi links: interfere iff endpoints within cs range. *)
  let g =
    Multigraph.create ~n_nodes:4 ~n_techs:1 ~edges:[ (0, 1, 0, 10.0); (2, 3, 0, 10.0) ]
  in
  let mk gap =
    [| { Geometry.x = 0.0; y = 0.0 }; { Geometry.x = 10.0; y = 0.0 };
       { Geometry.x = 10.0 +. gap; y = 0.0 }; { Geometry.x = 20.0 +. gap; y = 0.0 } |]
  in
  let techs = [| Technology.wifi ~index:0 ~channel:1 |] in
  let near =
    Domain.standard ~cs_factor:1.0 g ~techs ~positions:(mk 20.0) ~panels:[| 0; 0; 0; 0 |]
  in
  Alcotest.(check bool) "within cs range" true (Domain.interferes near 0 2);
  let far =
    Domain.standard ~cs_factor:1.0 g ~techs ~positions:(mk 40.0) ~panels:[| 0; 0; 0; 0 |]
  in
  Alcotest.(check bool) "beyond cs range" false (Domain.interferes far 0 2)

let test_standard_plc_panels () =
  let g =
    Multigraph.create ~n_nodes:4 ~n_techs:1 ~edges:[ (0, 1, 0, 10.0); (2, 3, 0, 10.0) ]
  in
  let positions = Array.make 4 { Geometry.x = 0.0; y = 0.0 } in
  let techs = [| Technology.plc ~index:0 |] in
  let same =
    Domain.standard g ~techs ~positions ~panels:[| 0; 0; 0; 0 |]
  in
  Alcotest.(check bool) "same panel: one domain" true (Domain.interferes same 0 2);
  let split =
    Domain.standard g ~techs ~positions ~panels:[| 0; 0; 1; 1 |]
  in
  Alcotest.(check bool) "different panels: independent" false
    (Domain.interferes split 0 2)

let test_of_instance () =
  let rng = Rng.create 3 in
  let inst = Residential.generate rng in
  let g = Builder.graph inst Builder.Hybrid in
  let dom = Domain.of_instance inst Builder.Hybrid g in
  Alcotest.(check int) "covers all links" (Multigraph.num_links g)
    (Domain.num_links dom);
  (* Cross-technology never interferes. *)
  let links = Multigraph.links g in
  Array.iter
    (fun (a : Multigraph.link) ->
      Array.iter
        (fun (b : Multigraph.link) ->
          if a.Multigraph.tech <> b.Multigraph.tech then
            Alcotest.(check bool) "cross-tech" false
              (Domain.interferes dom a.Multigraph.id b.Multigraph.id))
        links)
    links

let test_cliques_triangle () =
  (* Triangle graph: one maximal clique of size 3. *)
  let neighbors = function
    | 0 -> [ 1; 2 ]
    | 1 -> [ 0; 2 ]
    | 2 -> [ 0; 1 ]
    | _ -> []
  in
  Alcotest.(check (list (list int))) "triangle" [ [ 0; 1; 2 ] ]
    (Clique.bron_kerbosch ~n:3 ~neighbors)

let test_cliques_path () =
  (* Path 0-1-2: two maximal cliques {0,1} and {1,2}. *)
  let neighbors = function 0 -> [ 1 ] | 1 -> [ 0; 2 ] | 2 -> [ 1 ] | _ -> [] in
  Alcotest.(check (list (list int))) "path" [ [ 0; 1 ]; [ 1; 2 ] ]
    (Clique.bron_kerbosch ~n:3 ~neighbors)

let test_cliques_isolated () =
  let neighbors = fun _ -> [] in
  Alcotest.(check (list (list int))) "singletons" [ [ 0 ]; [ 1 ] ]
    (Clique.bron_kerbosch ~n:2 ~neighbors)

let test_cliques_two_components () =
  (* Edge 0-1 plus triangle 2-3-4. *)
  let neighbors = function
    | 0 -> [ 1 ] | 1 -> [ 0 ]
    | 2 -> [ 3; 4 ] | 3 -> [ 2; 4 ] | 4 -> [ 2; 3 ]
    | _ -> []
  in
  Alcotest.(check (list (list int))) "components" [ [ 0; 1 ]; [ 2; 3; 4 ] ]
    (Clique.bron_kerbosch ~n:5 ~neighbors)

let test_graph_cliques_cover_domains () =
  (* Every link must appear in at least one clique, and every clique
     must be a set of pairwise-interfering links. *)
  let rng = Rng.create 5 in
  let inst = Residential.generate rng in
  let g = Builder.graph inst Builder.Hybrid in
  let dom = Domain.of_instance inst Builder.Hybrid g in
  let cliques = Domain.graph_cliques dom in
  let covered = Array.make (Multigraph.num_links g) false in
  List.iter
    (fun clique ->
      List.iter (fun l -> covered.(l) <- true) clique;
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              Alcotest.(check bool) "pairwise interference" true
                (Domain.interferes dom a b))
            clique)
        clique)
    cliques;
  Alcotest.(check bool) "all links covered" true (Array.for_all Fun.id covered)

(* ---------- storage ---------- *)

(* Each I_l is one sorted array and the pairwise relation a bitset;
   the two must describe the same symmetric relation. *)

let draw name generate seed =
  let inst = generate (Rng.create seed) in
  let g = Builder.graph inst Builder.Hybrid in
  (name, g, Domain.of_instance inst Builder.Hybrid g)

let check_storage (name, g, dom) =
  let n = Multigraph.num_links g in
  Alcotest.(check int) (name ^ ": covers all links") n (Domain.num_links dom);
  for l = 0 to n - 1 do
    let d = Domain.domain dom l in
    for i = 1 to Array.length d - 1 do
      if d.(i - 1) >= d.(i) then Alcotest.failf "%s: I_%d is not sorted" name l
    done;
    if not (Array.mem l d) then Alcotest.failf "%s: I_%d misses %d" name l l;
    let peer = (Multigraph.link g l).Multigraph.peer in
    if not (Array.mem peer d) then
      Alcotest.failf "%s: I_%d misses its peer %d" name l peer;
    Array.iter
      (fun l' ->
        if not (Domain.interferes dom l' l) then
          Alcotest.failf "%s: %d is in I_%d but not the reverse" name l' l)
      d;
    if Array.to_list d <> List.filter (Domain.interferes dom l) (List.init n Fun.id)
    then Alcotest.failf "%s: I_%d differs from the pairwise relation" name l
  done

let test_storage_testbed () =
  let ((_, g, _) as t) = draw "testbed" Testbed.generate 4242 in
  Alcotest.(check int) "testbed links" 616 (Multigraph.num_links g);
  check_storage t

let test_storage_residential () = check_storage (draw "residential" Residential.generate 5)

let test_storage_enterprise () = check_storage (draw "enterprise" Enterprise.generate 3)

let test_restrict () =
  (* I_l ∩ S in domain order; all of I_l when S covers it. *)
  let _, g, dom = draw "testbed" Testbed.generate 4242 in
  let n = Multigraph.num_links g in
  let mem = Array.init n (fun l -> l mod 3 = 0) in
  let all = Array.make n true in
  for l = 0 to n - 1 do
    let d = Domain.domain dom l in
    let expected = List.filter (fun i -> mem.(i)) (Array.to_list d) in
    Alcotest.(check (list int))
      (Printf.sprintf "I_%d restricted" l)
      expected
      (Array.to_list (Domain.restrict dom mem l));
    Alcotest.(check (array int))
      (Printf.sprintf "I_%d covered" l)
      d (Domain.restrict dom all l)
  done

(* Twin classes: links with the same I_l share one class and one
   array. *)

let check_twins (name, g, dom) =
  let n = Multigraph.num_links g in
  for l = 0 to n - 1 do
    for l' = 0 to n - 1 do
      let same_twin = Domain.twin dom l = Domain.twin dom l' in
      if same_twin <> (Domain.domain dom l = Domain.domain dom l') then
        Alcotest.failf "%s: twin %d = twin %d is %b, I_%d = I_%d is not" name l l'
          same_twin l l';
      if same_twin && Domain.domain dom l != Domain.domain dom l' then
        Alcotest.failf "%s: twins %d and %d hold two arrays" name l l'
    done
  done;
  let distinct = List.sort_uniq compare (List.init n (Domain.domain dom)) in
  Alcotest.(check int) (name ^ ": one class per distinct I_l") (List.length distinct)
    (Domain.n_twins dom)

let twin_sizes dom n =
  let sizes = Array.make (Domain.n_twins dom) 0 in
  for l = 0 to n - 1 do
    let k = Domain.twin dom l in
    sizes.(k) <- sizes.(k) + 1
  done;
  List.sort (fun a b -> compare b a) (Array.to_list sizes)

let test_twins_testbed () =
  let ((_, g, dom) as t) = draw "testbed" Testbed.generate 4242 in
  check_twins t;
  Alcotest.(check int) "testbed classes" 4 (Domain.n_twins dom);
  Alcotest.(check (list int)) "testbed class sizes" [ 426; 182; 6; 2 ]
    (twin_sizes dom (Multigraph.num_links g))

let test_twins_draws () =
  check_twins (draw "residential" Residential.generate 5);
  check_twins (draw "enterprise" Enterprise.generate 3)

let test_twins_single_domain_per_tech () =
  (* One class per technology: every link of a technology has the
     whole technology as its domain. *)
  let inst = Testbed.generate (Rng.create 4242) in
  let g = Builder.graph inst Builder.Hybrid in
  let dom = Domain.single_domain_per_tech g in
  check_twins ("testbed per tech", g, dom);
  let tech l = (Multigraph.link g l).Multigraph.tech in
  let n = Multigraph.num_links g in
  let techs = List.sort_uniq compare (List.init n tech) in
  Alcotest.(check int) "one class per technology" (List.length techs) (Domain.n_twins dom);
  for l = 0 to n - 1 do
    for l' = 0 to n - 1 do
      if (Domain.twin dom l = Domain.twin dom l') <> (tech l = tech l') then
        Alcotest.failf "links %d and %d: twin classes disagree with technologies" l l'
    done
  done

let clique_digest cliques =
  Digest.to_hex
    (Digest.string
       (String.concat ";"
          (List.map (fun c -> String.concat "," (List.map string_of_int c)) cliques)))

let test_graph_cliques_pinned () =
  (* Counts and digests recorded from the matrix-backed implementation
     the bitset replaced. *)
  let pin (name, _, dom) count digest =
    let cliques = Domain.graph_cliques dom in
    Alcotest.(check int) (name ^ " clique count") count (List.length cliques);
    Alcotest.(check string) (name ^ " clique digest") digest (clique_digest cliques)
  in
  pin (draw "residential" Residential.generate 5) 2 "5a11818712ae16e157326a2efbbaebc4";
  pin (draw "enterprise" Enterprise.generate 3) 10 "1b1591f0ef8f048b13219957d6fb9a74"

let prop_interference_symmetric =
  QCheck.Test.make ~name:"interference is symmetric" ~count:30
    QCheck.(int_bound 100000)
    (fun seed ->
      let inst = Residential.generate (Rng.create seed) in
      let g = Builder.graph inst Builder.Hybrid in
      let dom = Domain.of_instance inst Builder.Hybrid g in
      let n = Multigraph.num_links g in
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          if Domain.interferes dom a b <> Domain.interferes dom b a then ok := false
        done
      done;
      !ok)

let prop_domains_sorted_and_reflexive =
  QCheck.Test.make ~name:"domains sorted, contain self and peer" ~count:30
    QCheck.(int_bound 100000)
    (fun seed ->
      let inst = Enterprise.generate (Rng.create (seed + 3)) in
      let g = Builder.graph inst Builder.Hybrid in
      let dom = Domain.of_instance inst Builder.Hybrid g in
      let ok = ref true in
      for l = 0 to Multigraph.num_links g - 1 do
        let d = Domain.domain dom l in
        if not (Array.mem l d) then ok := false;
        if not (Array.mem (Multigraph.link g l).Multigraph.peer d) then ok := false;
        let sorted = Array.copy d in
        Array.sort compare sorted;
        if sorted <> d then ok := false
      done;
      !ok)

let () =
  Alcotest.run "interference"
    [
      ( "domains",
        [
          Alcotest.test_case "single domain per tech" `Quick
            test_single_domain_per_tech;
          Alcotest.test_case "domain contents" `Quick test_domain_contents;
          Alcotest.test_case "shared node" `Quick test_standard_same_node_interferes;
          Alcotest.test_case "carrier-sense range" `Quick
            test_standard_carrier_sense_range;
          Alcotest.test_case "plc panels" `Quick test_standard_plc_panels;
          Alcotest.test_case "of_instance" `Quick test_of_instance;
        ] );
      ( "cliques",
        [
          Alcotest.test_case "triangle" `Quick test_cliques_triangle;
          Alcotest.test_case "path" `Quick test_cliques_path;
          Alcotest.test_case "isolated" `Quick test_cliques_isolated;
          Alcotest.test_case "two components" `Quick test_cliques_two_components;
          Alcotest.test_case "cover domains" `Quick test_graph_cliques_cover_domains;
          Alcotest.test_case "pinned draws" `Quick test_graph_cliques_pinned;
        ] );
      ( "storage",
        [
          Alcotest.test_case "testbed" `Quick test_storage_testbed;
          Alcotest.test_case "residential" `Quick test_storage_residential;
          Alcotest.test_case "enterprise" `Quick test_storage_enterprise;
          Alcotest.test_case "restrict" `Quick test_restrict;
          Alcotest.test_case "twins testbed" `Quick test_twins_testbed;
          Alcotest.test_case "twins draws" `Quick test_twins_draws;
          Alcotest.test_case "twins per tech" `Quick test_twins_single_domain_per_tech;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_interference_symmetric;
          QCheck_alcotest.to_alcotest prop_domains_sorted_and_reflexive;
        ] );
    ]
