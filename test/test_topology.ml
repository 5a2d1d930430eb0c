(* Tests for the residential/enterprise/testbed topology generators
   and the scenario projection. *)

let test_residential_shape () =
  let rng = Rng.create 1 in
  let inst = Residential.generate rng in
  Alcotest.(check int) "10 nodes" 10 (Builder.node_count inst);
  Alcotest.(check int) "5 dual" 5 (List.length (Builder.dual_nodes inst));
  Array.iter
    (fun nd ->
      let p = nd.Builder.pos in
      Alcotest.(check bool) "inside rectangle" true
        (p.Geometry.x >= 0.0 && p.Geometry.x <= 50.0 && p.Geometry.y >= 0.0
       && p.Geometry.y <= 30.0);
      Alcotest.(check int) "single panel" 0 nd.Builder.panel)
    inst.Builder.nodes

let test_enterprise_shape () =
  let rng = Rng.create 2 in
  let inst = Enterprise.generate rng in
  Alcotest.(check int) "20 nodes" 20 (Builder.node_count inst);
  Alcotest.(check int) "10 APs" 10 (List.length (Builder.dual_nodes inst));
  (* APs sit on distinct 10x10 grid cells. *)
  let ap_cells =
    List.filter_map
      (fun nd ->
        if nd.Builder.dual then
          Some
            ( int_of_float (nd.Builder.pos.Geometry.x /. 10.0),
              int_of_float (nd.Builder.pos.Geometry.y /. 10.0) )
        else None)
      (Array.to_list inst.Builder.nodes)
  in
  Alcotest.(check int) "distinct cells" 10 (List.length (List.sort_uniq compare ap_cells));
  (* Panels split the floor at x = 50. *)
  Array.iter
    (fun nd ->
      let expected = if nd.Builder.pos.Geometry.x < 50.0 then 0 else 1 in
      Alcotest.(check int) "panel by half" expected nd.Builder.panel)
    inst.Builder.nodes

let test_plc_respects_panels () =
  let rng = Rng.create 3 in
  let inst = Enterprise.generate rng in
  let n = Builder.node_count inst in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if inst.Builder.plc.(i).(j) > 0.0 then begin
        Alcotest.(check int) "same panel" inst.Builder.nodes.(i).Builder.panel
          inst.Builder.nodes.(j).Builder.panel;
        Alcotest.(check bool) "both dual" true
          (inst.Builder.nodes.(i).Builder.dual && inst.Builder.nodes.(j).Builder.dual)
      end
    done
  done

let test_matrices_symmetric () =
  let rng = Rng.create 4 in
  let inst = Residential.generate rng in
  let n = Builder.node_count inst in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Alcotest.(check (float 0.0)) "wifi sym" inst.Builder.wifi1.(i).(j)
        inst.Builder.wifi1.(j).(i);
      Alcotest.(check (float 0.0)) "plc sym" inst.Builder.plc.(i).(j)
        inst.Builder.plc.(j).(i)
    done;
    Alcotest.(check (float 0.0)) "no self wifi" 0.0 inst.Builder.wifi1.(i).(i)
  done

let test_wifi2_equals_wifi1_between_duals () =
  let rng = Rng.create 5 in
  let inst = Residential.generate rng in
  let n = Builder.node_count inst in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if inst.Builder.nodes.(i).Builder.dual && inst.Builder.nodes.(j).Builder.dual then
        Alcotest.(check (float 0.0)) "equal channels" inst.Builder.wifi1.(i).(j)
          inst.Builder.wifi2.(i).(j)
      else Alcotest.(check (float 0.0)) "no second radio" 0.0 inst.Builder.wifi2.(i).(j)
    done
  done

let test_scenario_projection () =
  let rng = Rng.create 6 in
  let inst = Residential.generate rng in
  let g_h = Builder.graph inst Builder.Hybrid in
  let g_w = Builder.graph inst Builder.Single_wifi in
  let g_m = Builder.graph inst Builder.Multi_wifi in
  Alcotest.(check int) "hybrid 2 techs" 2 (Multigraph.n_techs g_h);
  Alcotest.(check int) "wifi 1 tech" 1 (Multigraph.n_techs g_w);
  Alcotest.(check int) "mwifi 2 techs" 2 (Multigraph.n_techs g_m);
  (* The WiFi channel-1 links are identical across scenarios. *)
  let count_tech g k =
    Array.fold_left
      (fun acc l -> if l.Multigraph.tech = k then acc + 1 else acc)
      0 (Multigraph.links g)
  in
  Alcotest.(check int) "same wifi1 links h/w" (count_tech g_h 0) (count_tech g_w 0);
  Alcotest.(check int) "same wifi1 links h/m" (count_tech g_h 0) (count_tech g_m 0)

let test_techs_tables () =
  let th = Builder.techs Builder.Hybrid in
  Alcotest.(check bool) "hybrid = wifi + plc" true
    (Technology.is_wifi th.(0) && Technology.is_plc th.(1));
  let tm = Builder.techs Builder.Multi_wifi in
  Alcotest.(check bool) "mwifi = wifi + wifi" true
    (Technology.is_wifi tm.(0) && Technology.is_wifi tm.(1))

let test_testbed_fixed () =
  Alcotest.(check int) "22 nodes" 22 Testbed.n_nodes;
  Alcotest.(check int) "positions array" 22 (Array.length Testbed.positions);
  let rng = Rng.create 7 in
  let inst = Testbed.generate rng in
  Alcotest.(check int) "instance nodes" 22 (Builder.node_count inst);
  Alcotest.(check int) "all dual" 22 (List.length (Builder.dual_nodes inst));
  Array.iter
    (fun nd ->
      let p = nd.Builder.pos in
      Alcotest.(check bool) "inside floor" true
        (p.Geometry.x >= 0.0 && p.Geometry.x <= 65.0 && p.Geometry.y >= 0.0
       && p.Geometry.y <= 40.0))
    inst.Builder.nodes;
  (* Node numbering helper. *)
  Alcotest.(check int) "node 1 -> id 0" 0 (Testbed.node 1);
  Alcotest.(check int) "node 22 -> id 21" 21 (Testbed.node 22);
  Alcotest.(check bool) "node 0 rejected" true
    (try
       ignore (Testbed.node 0);
       false
     with Invalid_argument _ -> true)

let test_testbed_not_single_hop () =
  (* The floor diagonal exceeds the WiFi radius: some pairs must lack
     a direct WiFi link, making multi-hop necessary. *)
  let rng = Rng.create 8 in
  let inst = Testbed.generate rng in
  let far_pairs = ref 0 in
  let n = Builder.node_count inst in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if inst.Builder.wifi1.(i).(j) = 0.0 then incr far_pairs
    done
  done;
  Alcotest.(check bool) "some pairs need relaying" true (!far_pairs > 10)

let test_hybrid_graph_connected_via_plc () =
  (* In the hybrid testbed, PLC (50 m radius) should connect most of
     the floor: the hybrid graph must be connected for seed 9. *)
  let rng = Rng.create 9 in
  let inst = Testbed.generate rng in
  let g = Builder.graph inst Builder.Hybrid in
  let reachable = Array.make (Multigraph.n_nodes g) false in
  let rec dfs u =
    if not reachable.(u) then begin
      reachable.(u) <- true;
      List.iter
        (fun l -> if Multigraph.usable g l then dfs (Multigraph.link g l).Multigraph.dst)
        (Multigraph.out_links g u)
    end
  in
  dfs 0;
  Alcotest.(check bool) "connected" true (Array.for_all Fun.id reachable)

let prop_generators_deterministic =
  QCheck.Test.make ~name:"same seed, same instance" ~count:30
    QCheck.(int_bound 100000)
    (fun seed ->
      let a = Residential.generate (Rng.create seed) in
      let b = Residential.generate (Rng.create seed) in
      a.Builder.wifi1 = b.Builder.wifi1 && a.Builder.plc = b.Builder.plc
      && Array.for_all2
           (fun x y -> x.Builder.pos = y.Builder.pos)
           a.Builder.nodes b.Builder.nodes)

let prop_capacities_within_radius =
  QCheck.Test.make ~name:"links only exist within connection radius" ~count:30
    QCheck.(int_bound 100000)
    (fun seed ->
      let inst = Enterprise.generate (Rng.create seed) in
      let n = Builder.node_count inst in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let d =
            Geometry.distance inst.Builder.nodes.(i).Builder.pos
              inst.Builder.nodes.(j).Builder.pos
          in
          if inst.Builder.wifi1.(i).(j) > 0.0 && d > 35.0 then ok := false;
          if inst.Builder.plc.(i).(j) > 0.0 && d > 50.0 then ok := false
        done
      done;
      !ok)

(* ---------- device classes ---------- *)

let device_inst () = Testbed.generate (Rng.create 4242)

let test_device_apply_identity () =
  let inst = device_inst () in
  Alcotest.(check bool) "apply [] is the identity" true
    (Device.apply inst [] = inst)

let test_device_legacy_mask () =
  let inst = device_inst () in
  let victim = List.hd (Builder.dual_nodes inst) in
  let inst' = Device.apply inst [ { Device.node = victim; cls = Device.Legacy; panel = None } ] in
  let n = Builder.node_count inst' in
  Alcotest.(check bool) "legacy node loses dual flag" false
    inst'.Builder.nodes.(victim).Builder.dual;
  for j = 0 to n - 1 do
    Alcotest.(check (float 0.0)) "no wifi2" 0.0 inst'.Builder.wifi2.(victim).(j);
    Alcotest.(check (float 0.0)) "no plc" 0.0 inst'.Builder.plc.(victim).(j);
    Alcotest.(check (float 0.0)) "no wifi2 inbound" 0.0
      inst'.Builder.wifi2.(j).(victim);
    Alcotest.(check (float 0.0)) "no plc inbound" 0.0
      inst'.Builder.plc.(j).(victim);
    (* The primary radio is untouched. *)
    Alcotest.(check (float 0.0)) "wifi1 kept" inst.Builder.wifi1.(victim).(j)
      inst'.Builder.wifi1.(victim).(j)
  done

let test_device_panel_override () =
  let inst = device_inst () in
  (* Move one PLC-connected node onto its own panel: every PLC pair
     through it dies, everything else is untouched. *)
  let n = Builder.node_count inst in
  let victim =
    let rec find i =
      if i >= n then Alcotest.fail "no plc-connected node in the testbed"
      else if Array.exists (fun c -> c > 0.0) inst.Builder.plc.(i) then i
      else find (i + 1)
    in
    find 0
  in
  let inst' =
    Device.apply inst [ { Device.node = victim; cls = Device.Full; panel = Some 7 } ]
  in
  Alcotest.(check int) "panel overridden" 7
    inst'.Builder.nodes.(victim).Builder.panel;
  for j = 0 to n - 1 do
    Alcotest.(check (float 0.0)) "plc severed" 0.0 inst'.Builder.plc.(victim).(j)
  done;
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> victim && j <> victim then
        Alcotest.(check (float 0.0)) "other plc pairs untouched"
          inst.Builder.plc.(i).(j) inst'.Builder.plc.(i).(j)
    done
  done

let test_device_relay_originates () =
  let specs =
    [
      { Device.node = 3; cls = Device.Relay; panel = None };
      { Device.node = 5; cls = Device.Legacy; panel = None };
    ]
  in
  Alcotest.(check bool) "relay does not originate" false (Device.originates specs 3);
  Alcotest.(check bool) "legacy originates" true (Device.originates specs 5);
  Alcotest.(check bool) "unlisted originates" true (Device.originates specs 0)

let test_device_mask_only_removes () =
  (* Whatever the spec, no matrix entry may grow: device classes are
     a mask, never a capability grant. *)
  let inst = device_inst () in
  let n = Builder.node_count inst in
  let specs =
    [
      { Device.node = 0; cls = Device.Legacy; panel = None };
      { Device.node = 1; cls = Device.Relay; panel = Some 3 };
      { Device.node = 2; cls = Device.Full; panel = Some 1 };
    ]
  in
  let inst' = Device.apply inst specs in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let le what a b =
        if b > a then
          Alcotest.failf "%s (%d,%d) grew from %g to %g" what i j a b
      in
      le "wifi1" inst.Builder.wifi1.(i).(j) inst'.Builder.wifi1.(i).(j);
      le "wifi2" inst.Builder.wifi2.(i).(j) inst'.Builder.wifi2.(i).(j);
      le "plc" inst.Builder.plc.(i).(j) inst'.Builder.plc.(i).(j)
    done
  done

let test_device_validate () =
  let inst = device_inst () in
  let bad name specs =
    match Device.validate inst specs with
    | Ok () -> Alcotest.failf "%s: invalid spec accepted" name
    | Error _ -> ()
  in
  (match Device.validate inst [] with
  | Ok () -> ()
  | Error m -> Alcotest.failf "empty spec rejected: %s" m);
  bad "node out of range" [ { Device.node = 99; cls = Device.Full; panel = None } ];
  bad "negative node" [ { Device.node = -1; cls = Device.Full; panel = None } ];
  bad "duplicate node"
    [
      { Device.node = 1; cls = Device.Relay; panel = None };
      { Device.node = 1; cls = Device.Legacy; panel = None };
    ];
  bad "negative panel" [ { Device.node = 1; cls = Device.Full; panel = Some (-2) } ];
  (* Round-trip of the class names used by the scenario codec. *)
  List.iter
    (fun c ->
      match Device.cls_of_name (Device.cls_name c) with
      | Some c' when c = c' -> ()
      | _ -> Alcotest.failf "class name %s does not round-trip" (Device.cls_name c))
    [ Device.Full; Device.Legacy; Device.Relay ];
  Alcotest.(check bool) "unknown class name" true
    (Device.cls_of_name "quantum" = None)

let () =
  Alcotest.run "topology"
    [
      ( "devices",
        [
          Alcotest.test_case "empty spec is identity" `Quick
            test_device_apply_identity;
          Alcotest.test_case "legacy loses second medium" `Quick
            test_device_legacy_mask;
          Alcotest.test_case "panel override severs plc" `Quick
            test_device_panel_override;
          Alcotest.test_case "relay originates nothing" `Quick
            test_device_relay_originates;
          Alcotest.test_case "mask never adds capability" `Quick
            test_device_mask_only_removes;
          Alcotest.test_case "validate rejects" `Quick test_device_validate;
        ] );
      ( "residential",
        [ Alcotest.test_case "shape" `Quick test_residential_shape ] );
      ( "enterprise",
        [
          Alcotest.test_case "shape" `Quick test_enterprise_shape;
          Alcotest.test_case "plc respects panels" `Quick test_plc_respects_panels;
        ] );
      ( "builder",
        [
          Alcotest.test_case "matrices symmetric" `Quick test_matrices_symmetric;
          Alcotest.test_case "wifi2 = wifi1 between duals" `Quick
            test_wifi2_equals_wifi1_between_duals;
          Alcotest.test_case "scenario projection" `Quick test_scenario_projection;
          Alcotest.test_case "technology tables" `Quick test_techs_tables;
        ] );
      ( "testbed",
        [
          Alcotest.test_case "fixed floorplan" `Quick test_testbed_fixed;
          Alcotest.test_case "multi-hop needed" `Quick test_testbed_not_single_hop;
          Alcotest.test_case "hybrid connectivity" `Quick
            test_hybrid_graph_connected_via_plc;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_generators_deterministic;
          QCheck_alcotest.to_alcotest prop_capacities_within_radius;
        ] );
    ]
