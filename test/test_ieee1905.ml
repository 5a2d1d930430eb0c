(* Tests for the IEEE 1905.1 abstraction-layer subset: TLV and CMDU
   wire formats and the topology database. *)

let check_float ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.6f, got %.6f" msg expected actual

let mac = Tlv.mac_of_node

(* --- TLV --- *)

let test_mac_of_node () =
  let m = mac ~node:0x1234 ~tech:2 in
  Alcotest.(check int) "length" 6 (String.length m);
  Alcotest.(check bool) "locally administered" true (Char.code m.[0] land 0x02 <> 0);
  (match Abstraction_layer.node_of_mac m with
  | Some (n, t) ->
    Alcotest.(check int) "node" 0x1234 n;
    Alcotest.(check int) "tech" 2 t
  | None -> Alcotest.fail "own mac not recognized");
  Alcotest.(check bool) "foreign mac rejected" true
    (Abstraction_layer.node_of_mac "\x00\x11\x22\x33\x44\x55" = None)

let roundtrip tlv =
  let b = Tlv.encode tlv in
  let tlv', next = Tlv.decode b ~pos:0 in
  Alcotest.(check int) "consumed exactly" (Bytes.length b) next;
  tlv'

let test_tlv_roundtrips () =
  let cases =
    [
      Tlv.End_of_message;
      Tlv.Al_mac_address (mac ~node:3 ~tech:0xFF);
      Tlv.Mac_address (mac ~node:4 ~tech:1);
      Tlv.Device_information
        ( mac ~node:5 ~tech:0xFF,
          [
            { Tlv.mac = mac ~node:5 ~tech:0; media = Tlv.Wifi 1 };
            { Tlv.mac = mac ~node:5 ~tech:1; media = Tlv.Plc_1901 };
            { Tlv.mac = mac ~node:5 ~tech:2; media = Tlv.Ethernet };
          ] );
      Tlv.Link_metric
        {
          Tlv.local_mac = mac ~node:1 ~tech:0;
          remote_mac = mac ~node:2 ~tech:0;
          capacity_mbps = 87.65;
        };
      Tlv.Unknown (0x42, "payload");
    ]
  in
  List.iter (fun tlv -> Alcotest.(check bool) "roundtrip" true (roundtrip tlv = tlv)) cases

let test_tlv_capacity_quantization () =
  match
    roundtrip
      (Tlv.Link_metric
         {
           Tlv.local_mac = mac ~node:1 ~tech:0;
           remote_mac = mac ~node:2 ~tech:0;
           capacity_mbps = 12.3456;
         })
  with
  | Tlv.Link_metric lm ->
    check_float ~eps:0.005 "0.01 Mbps units" 12.35 lm.Tlv.capacity_mbps
  | _ -> Alcotest.fail "wrong tlv"

let test_tlv_validation () =
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "short mac" true
    (bad (fun () -> Tlv.encode (Tlv.Mac_address "abc")));
  Alcotest.(check bool) "truncated decode" true
    (bad (fun () -> Tlv.decode (Bytes.make 2 '\000') ~pos:0));
  Alcotest.(check bool) "truncated value" true
    (bad (fun () ->
         let b = Tlv.encode (Tlv.Mac_address (mac ~node:1 ~tech:0)) in
         Tlv.decode (Bytes.sub b 0 5) ~pos:0))

let test_tlv_encode_all () =
  let tlvs = [ Tlv.Al_mac_address (mac ~node:1 ~tech:0xFF) ] in
  let b = Tlv.encode_all tlvs in
  Alcotest.(check bool) "decode_all strips end" true (Tlv.decode_all b ~pos:0 = tlvs);
  Alcotest.(check bool) "explicit end rejected" true
    (try
       ignore (Tlv.encode_all [ Tlv.End_of_message ]);
       false
     with Invalid_argument _ -> true)

(* --- CMDU --- *)

let test_cmdu_roundtrip () =
  let c =
    Cmdu.make ~relay:true Cmdu.Topology_notification ~message_id:777
      [ Tlv.Al_mac_address (mac ~node:9 ~tech:0xFF) ]
  in
  let c' = Cmdu.decode (Cmdu.encode c) in
  Alcotest.(check bool) "roundtrip" true (c = c');
  Alcotest.(check int) "type code" 0x0001 (Cmdu.message_type_code c.Cmdu.message_type)

let test_cmdu_validation () =
  Alcotest.(check bool) "bad id" true
    (try
       ignore (Cmdu.make Cmdu.Topology_query ~message_id:70000 []);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "unknown type code" true
    (try
       let b = Cmdu.encode (Cmdu.make Cmdu.Topology_query ~message_id:1 []) in
       Bytes.set b 3 '\xee';
       ignore (Cmdu.decode b);
       false
     with Invalid_argument _ -> true)

(* --- Abstraction layer --- *)

let fig1 () =
  Multigraph.create ~n_nodes:3 ~n_techs:2
    ~edges:[ (0, 1, 0, 15.0); (1, 2, 0, 30.0); (0, 1, 1, 10.0) ]

let techs () = Array.of_list (Technology.hybrid ())

let test_al_topology_exchange () =
  let g = fig1 () in
  let als = Array.init 3 (fun node -> Abstraction_layer.create ~node ~techs:(techs ())) in
  (* Everyone responds; node 0 hears all responses (wire-encoded and
     decoded, exercising the full format). *)
  Array.iteri
    (fun i al ->
      let cmdu = Abstraction_layer.topology_response al g ~message_id:(i + 1) in
      let wire = Cmdu.encode cmdu in
      Abstraction_layer.handle als.(0) (Cmdu.decode wire))
    als;
  Alcotest.(check int) "heard three devices" 3 (Abstraction_layer.known_devices als.(0));
  let view = Abstraction_layer.graph als.(0) ~n_nodes:3 in
  Alcotest.(check int) "all links reconstructed" (Multigraph.num_links g)
    (Multigraph.num_links view);
  (* Capacities survive (0.01 Mbps wire precision); look links up by
     endpoints and technology, since the reconstruction orders edges
     differently. *)
  let cap_of gr ~src ~dst ~tech =
    match
      List.filter
        (fun l -> (Multigraph.link gr l).Multigraph.tech = tech)
        (Multigraph.find_links gr ~src ~dst)
    with
    | [ l ] -> Multigraph.capacity gr l
    | _ -> Alcotest.failf "link %d->%d tech %d not found" src dst tech
  in
  check_float ~eps:0.01 "wifi a-b" 15.0 (cap_of view ~src:0 ~dst:1 ~tech:0);
  check_float ~eps:0.01 "plc a-b" 10.0 (cap_of view ~src:0 ~dst:1 ~tech:1);
  (* Routing on the 1905.1-derived view matches the truth. *)
  match
    ( Single_path.route g ~src:0 ~dst:2,
      Single_path.route view ~src:0 ~dst:2 )
  with
  | Some (p, _), Some (p', _) ->
    Alcotest.(check bool) "same route" true (Paths.nodes g p = Paths.nodes view p')
  | _ -> Alcotest.fail "routes missing"

let test_al_stale_messages_ignored () =
  let g = fig1 () in
  let al0 = Abstraction_layer.create ~node:0 ~techs:(techs ()) in
  let al1 = Abstraction_layer.create ~node:1 ~techs:(techs ()) in
  Abstraction_layer.handle al0 (Abstraction_layer.topology_response al1 g ~message_id:5);
  (* An older message (lower id) from the same AL must not replace
     newer state: degrade the capacities and replay with id 3. *)
  let caps = Multigraph.capacities g in
  Array.iteri (fun i _ -> caps.(i) <- 1.0) caps;
  let degraded = Multigraph.with_capacities g caps in
  Abstraction_layer.handle al0
    (Abstraction_layer.topology_response al1 degraded ~message_id:3);
  let view = Abstraction_layer.graph al0 ~n_nodes:3 in
  (* Node 1's links still at original capacities. *)
  let l =
    List.find
      (fun l -> (Multigraph.link view l).Multigraph.tech = 0)
      (Multigraph.find_links view ~src:1 ~dst:2)
  in
  check_float ~eps:0.01 "kept fresh metrics" 30.0 (Multigraph.capacity view l)

let test_al_garbage_resilience () =
  let al = Abstraction_layer.create ~node:0 ~techs:(techs ()) in
  (* Foreign MACs and unknown TLVs must be ignored without error. *)
  let cmdu =
    Cmdu.make Cmdu.Topology_response ~message_id:1
      [
        Tlv.Al_mac_address "\x00\xde\xad\xbe\xef\x00";
        Tlv.Unknown (0x77, "whatever");
        Tlv.Link_metric
          {
            Tlv.local_mac = "\x00\x11\x22\x33\x44\x55";
            remote_mac = "\x00\x11\x22\x33\x44\x66";
            capacity_mbps = 99.0;
          };
      ]
  in
  Abstraction_layer.handle al (Cmdu.decode (Cmdu.encode cmdu));
  let view = Abstraction_layer.graph al ~n_nodes:3 in
  Alcotest.(check int) "foreign links ignored" 0 (Multigraph.num_links view)

let prop_tlv_unknown_forwarded =
  QCheck.Test.make ~name:"unknown TLVs roundtrip untouched" ~count:100
    QCheck.(pair (int_range 0x20 0xff) (string_of_size Gen.(int_range 0 64)))
    (fun (ty, payload) ->
      let tlv = Tlv.Unknown (ty, payload) in
      match Tlv.decode (Tlv.encode tlv) ~pos:0 with
      | Tlv.Unknown (ty', p'), _ -> ty = ty' && payload = p'
      | _ ->
        (* types that collide with known TLVs may decode as them *)
        ty <= 0x09)

let () =
  Alcotest.run "ieee1905"
    [
      ( "tlv",
        [
          Alcotest.test_case "mac scheme" `Quick test_mac_of_node;
          Alcotest.test_case "roundtrips" `Quick test_tlv_roundtrips;
          Alcotest.test_case "capacity quantization" `Quick
            test_tlv_capacity_quantization;
          Alcotest.test_case "validation" `Quick test_tlv_validation;
          Alcotest.test_case "encode_all" `Quick test_tlv_encode_all;
          QCheck_alcotest.to_alcotest prop_tlv_unknown_forwarded;
        ] );
      ( "cmdu",
        [
          Alcotest.test_case "roundtrip" `Quick test_cmdu_roundtrip;
          Alcotest.test_case "validation" `Quick test_cmdu_validation;
        ] );
      ( "abstraction-layer",
        [
          Alcotest.test_case "topology exchange" `Quick test_al_topology_exchange;
          Alcotest.test_case "stale ignored" `Quick test_al_stale_messages_ignored;
          Alcotest.test_case "garbage resilience" `Quick test_al_garbage_resilience;
        ] );
    ]
