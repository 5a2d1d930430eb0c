(* Tests for the layer-2.5 protocol: header wire format, source-route
   codec, reorder buffer and ACK collection. *)

let check_float ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.9f, got %.9f" msg expected actual

(* --- Route_codec --- *)

let test_iface_hash_range () =
  for node = 0 to 50 do
    for tech = 0 to 2 do
      let h = Route_codec.iface_hash ~node ~tech in
      if h < 1 || h > 0xFFFF then Alcotest.failf "hash out of range: %d" h
    done
  done

let test_iface_hash_distinct_smallnet () =
  (* All interfaces of a 22-node 3-tech network get distinct hashes. *)
  let seen = Hashtbl.create 128 in
  for node = 0 to 21 do
    for tech = 0 to 2 do
      let h = Route_codec.iface_hash ~node ~tech in
      if Hashtbl.mem seen h then Alcotest.failf "collision at %d/%d" node tech;
      Hashtbl.add seen h ()
    done
  done

let fig1_graph () =
  Multigraph.create ~n_nodes:3 ~n_techs:2
    ~edges:[ (0, 1, 0, 15.0); (1, 2, 0, 30.0); (0, 1, 1, 10.0) ]

let test_route_of_path_and_forwarding () =
  let g = fig1_graph () in
  let p = Paths.of_links g [ 4; 2 ] in
  let route = Route_codec.route_of_path g p in
  Alcotest.(check int) "two entries" 2 (Array.length route);
  (* Node 1's interfaces: it receives hop 1 on PLC (tech 1). *)
  let node1_ifaces =
    [ Route_codec.iface_hash ~node:1 ~tech:0; Route_codec.iface_hash ~node:1 ~tech:1 ]
  in
  let node2_ifaces = [ Route_codec.iface_hash ~node:2 ~tech:0 ] in
  (match Route_codec.next_hop route ~my_ifaces:node1_ifaces with
  | Some h ->
    Alcotest.(check int) "next is node2 wifi" (Route_codec.iface_hash ~node:2 ~tech:0) h
  | None -> Alcotest.fail "expected a next hop");
  Alcotest.(check bool) "node1 not destination" false
    (Route_codec.is_destination route ~my_ifaces:node1_ifaces);
  Alcotest.(check bool) "node2 is destination" true
    (Route_codec.is_destination route ~my_ifaces:node2_ifaces);
  Alcotest.(check bool) "node2 has no next hop" true
    (Route_codec.next_hop route ~my_ifaces:node2_ifaces = None);
  (* An unrelated node neither matches nor forwards. *)
  let stranger = [ Route_codec.iface_hash ~node:7 ~tech:0 ] in
  Alcotest.(check bool) "stranger: none" true
    (Route_codec.next_hop route ~my_ifaces:stranger = None)

let test_route_too_long () =
  let edges = List.init 7 (fun i -> (i, i + 1, 0, 10.0)) in
  let g = Multigraph.create ~n_nodes:8 ~n_techs:1 ~edges in
  let p = Paths.of_links g (List.init 7 (fun i -> 2 * i)) in
  Alcotest.(check bool) "7 hops rejected" true
    (try
       ignore (Route_codec.route_of_path g p);
       false
     with Invalid_argument _ -> true)

(* --- Header --- *)

let test_header_size () = Alcotest.(check int) "20 bytes" 20 Header.size

let test_header_roundtrip () =
  let h = Header.make ~seq:123456789 ~qr:1.5 ~route:[| 10; 20; 30 |] in
  let h' = Header.decode (Header.encode h) in
  Alcotest.(check bool) "roundtrip" true (h = h');
  Alcotest.(check int) "encoded length" Header.size (Bytes.length (Header.encode h))

let test_header_qr_resolution () =
  (* q_r is stored in Q12.20 fixed point: decoding rounds to the
     resolution. *)
  let h = Header.make ~seq:0 ~qr:0.123456789 ~route:[| 1 |] in
  let h' = Header.decode (Header.encode h) in
  check_float ~eps:Header.qr_resolution "qr quantized" 0.123456789 h'.Header.qr

let test_header_qr_saturates () =
  let h = Header.make ~seq:0 ~qr:(Header.qr_max *. 10.0) ~route:[| 1 |] in
  let h' = Header.decode (Header.encode h) in
  check_float ~eps:1e-3 "saturated" Header.qr_max h'.Header.qr

let test_header_add_price () =
  let h = Header.make ~seq:0 ~qr:0.5 ~route:[| 1 |] in
  let h = Header.add_price h 0.25 in
  check_float "accumulated" 0.75 h.Header.qr;
  Alcotest.(check bool) "negative price rejected" true
    (try
       ignore (Header.add_price h (-1.0));
       false
     with Invalid_argument _ -> true)

let test_header_validation () =
  let bad f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "negative seq" true
    (bad (fun () -> ignore (Header.make ~seq:(-1) ~qr:0.0 ~route:[| 1 |])));
  Alcotest.(check bool) "route too long" true
    (bad (fun () -> ignore (Header.make ~seq:0 ~qr:0.0 ~route:(Array.make 7 1))));
  Alcotest.(check bool) "zero route entry" true
    (bad (fun () -> ignore (Header.make ~seq:0 ~qr:0.0 ~route:[| 0 |])));
  Alcotest.(check bool) "decode wrong length" true
    (bad (fun () -> ignore (Header.decode (Bytes.make 19 '\000'))));
  (* Malformed padding: non-zero after zero. *)
  let h = Header.make ~seq:0 ~qr:0.0 ~route:[| 5 |] in
  let b = Header.encode h in
  Bytes.set b 12 '\001';
  Bytes.set b 13 '\001';
  Alcotest.(check bool) "hole in route rejected" true
    (bad (fun () -> ignore (Header.decode b)))

let prop_header_roundtrip =
  QCheck.Test.make ~name:"header encode/decode roundtrip" ~count:300
    QCheck.(
      triple (int_bound 0xFFFFFFF) (float_range 0.0 100.0)
        (list_of_size Gen.(int_range 1 6) (int_range 1 0xFFFF)))
    (fun (seq, qr, route) ->
      let h = Header.make ~seq ~qr ~route:(Array.of_list route) in
      let h' = Header.decode (Header.encode h) in
      h'.Header.seq = h.Header.seq
      && h'.Header.route = h.Header.route
      && Float.abs (h'.Header.qr -. h.Header.qr) <= Header.qr_resolution)

(* --- Reorder --- *)

let test_reorder_in_order () =
  let r = Reorder.create ~n_routes:2 () in
  Alcotest.(check bool) "deliver 0" true
    (Reorder.push r ~route:0 ~seq:0 "a" = [ Reorder.Deliver (0, "a") ]);
  Alcotest.(check bool) "deliver 1" true
    (Reorder.push r ~route:1 ~seq:1 "b" = [ Reorder.Deliver (1, "b") ]);
  Alcotest.(check int) "next" 2 (Reorder.next_expected r)

let test_reorder_holds_gap () =
  let r = Reorder.create ~n_routes:2 () in
  Alcotest.(check bool) "2 buffered" true (Reorder.push r ~route:0 ~seq:2 "c" = []);
  Alcotest.(check int) "pending" 1 (Reorder.pending r);
  (* seq 0 arrives: deliver 0, still waiting for 1 (route 1 has not
     moved past it). *)
  Alcotest.(check bool) "deliver 0 only" true
    (Reorder.push r ~route:0 ~seq:0 "a" = [ Reorder.Deliver (0, "a") ]);
  (* Route 1 delivers seq 3: now both routes are past 1 -> lost. *)
  let evs = Reorder.push r ~route:1 ~seq:3 "d" in
  Alcotest.(check bool) "lost 1 then deliver 2,3" true
    (evs = [ Reorder.Lost 1; Reorder.Deliver (2, "c"); Reorder.Deliver (3, "d") ])

let test_reorder_single_route_loss () =
  let r = Reorder.create ~n_routes:1 () in
  ignore (Reorder.push r ~route:0 ~seq:0 "a");
  let evs = Reorder.push r ~route:0 ~seq:2 "c" in
  Alcotest.(check bool) "skip 1" true
    (evs = [ Reorder.Lost 1; Reorder.Deliver (2, "c") ])

let test_reorder_no_loss_mode () =
  let r = Reorder.create ~declare_losses:false ~n_routes:1 () in
  ignore (Reorder.push r ~route:0 ~seq:0 "a");
  Alcotest.(check bool) "gap waits" true (Reorder.push r ~route:0 ~seq:2 "c" = []);
  (* Retransmission arrives later. *)
  let evs = Reorder.push r ~route:0 ~seq:1 "b" in
  Alcotest.(check bool) "drain after retx" true
    (evs = [ Reorder.Deliver (1, "b"); Reorder.Deliver (2, "c") ])

let test_reorder_duplicates_ignored () =
  let r = Reorder.create ~n_routes:1 () in
  ignore (Reorder.push r ~route:0 ~seq:0 "a");
  Alcotest.(check bool) "dup of released" true (Reorder.push r ~route:0 ~seq:0 "a" = []);
  ignore (Reorder.push r ~route:0 ~seq:2 "c");
  Alcotest.(check bool) "dup of buffered" true
    (List.for_all
       (function Reorder.Deliver _ -> false | Reorder.Lost _ -> true)
       (Reorder.push r ~route:0 ~seq:2 "c"))

let test_reorder_validation () =
  let r = Reorder.create ~n_routes:2 () in
  Alcotest.(check bool) "bad route" true
    (try
       ignore (Reorder.push r ~route:2 ~seq:0 "x");
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative seq" true
    (try
       ignore (Reorder.push r ~route:0 ~seq:(-1) "x");
       false
     with Invalid_argument _ -> true)

let prop_reorder_delivers_in_order =
  QCheck.Test.make ~name:"reorder releases a sorted prefix-closed stream" ~count:150
    QCheck.(pair (int_bound 100000) (int_range 1 3))
    (fun (seed, n_routes) ->
      let rng = Rng.create seed in
      let r = Reorder.create ~n_routes () in
      let n = 30 in
      (* Per-route FIFO delivery with random interleaving and drops. *)
      let seqs = Array.init n Fun.id in
      Rng.shuffle rng seqs;
      let delivered = ref [] in
      Array.iter
        (fun seq ->
          if Rng.float rng > 0.15 then begin
            let route = Rng.int rng n_routes in
            List.iter
              (function
                | Reorder.Deliver (s, _) -> delivered := s :: !delivered
                | Reorder.Lost _ -> ())
              (Reorder.push r ~route ~seq ())
          end)
        seqs;
      let out = List.rev !delivered in
      (* Strictly increasing. *)
      let rec increasing = function
        | a :: (b :: _ as tl) -> a < b && increasing tl
        | _ -> true
      in
      increasing out)

(* --- Equalizer --- *)

let test_equalizer () =
  let e = Reorder.Equalizer.create ~n_routes:2 in
  Reorder.Equalizer.observe e ~route:0 ~delay:0.010;
  Reorder.Equalizer.observe e ~route:1 ~delay:0.050;
  check_float ~eps:1e-6 "route0 estimate" 0.010
    (Reorder.Equalizer.estimated_delay e ~route:0);
  (* The fast route is held back by the gap. *)
  check_float ~eps:1e-6 "fast held" 0.040 (Reorder.Equalizer.release_delay e ~route:0);
  check_float ~eps:1e-6 "slow not held" 0.0 (Reorder.Equalizer.release_delay e ~route:1);
  (* EWMA moves with new observations. *)
  for _ = 1 to 50 do
    Reorder.Equalizer.observe e ~route:0 ~delay:0.030
  done;
  Alcotest.(check bool) "ewma converges" true
    (Float.abs (Reorder.Equalizer.estimated_delay e ~route:0 -. 0.030) < 0.002)

(* --- Ack --- *)

let test_ack_collector () =
  let c = Ack.collector ~flow:3 ~n_routes:2 in
  Ack.on_packet ~ce:false c ~route:0 ~qr:[| 0.5 |] ~seq:10 ~bytes:1000;
  Ack.on_packet ~ce:false c ~route:0 ~qr:[| 0.6 |] ~seq:11 ~bytes:1000;
  Ack.on_packet ~ce:false c ~route:1 ~qr:[| 0.2 |] ~seq:12 ~bytes:500;
  let ack = Ack.emit c ~now:1.0 in
  Alcotest.(check int) "flow id" 3 ack.Ack.flow;
  (match ack.Ack.reports with
  | [ r0; r1 ] ->
    check_float "qr latest" 0.6 r0.Ack.qr;
    Alcotest.(check int) "highest" 11 r0.Ack.highest_seq;
    Alcotest.(check int) "bytes" 2000 r0.Ack.bytes;
    Alcotest.(check int) "route1 bytes" 500 r1.Ack.bytes
  | _ -> Alcotest.fail "expected two reports");
  (* Window counters reset; state persists. *)
  let ack2 = Ack.emit c ~now:1.1 in
  match ack2.Ack.reports with
  | [ r0; _ ] ->
    Alcotest.(check int) "window reset" 0 r0.Ack.bytes;
    check_float "qr persists" 0.6 r0.Ack.qr
  | _ -> Alcotest.fail "expected two reports"

let () =
  Alcotest.run "protocol"
    [
      ( "route-codec",
        [
          Alcotest.test_case "hash range" `Quick test_iface_hash_range;
          Alcotest.test_case "hash distinct" `Quick test_iface_hash_distinct_smallnet;
          Alcotest.test_case "forwarding" `Quick test_route_of_path_and_forwarding;
          Alcotest.test_case "route too long" `Quick test_route_too_long;
        ] );
      ( "header",
        [
          Alcotest.test_case "size" `Quick test_header_size;
          Alcotest.test_case "roundtrip" `Quick test_header_roundtrip;
          Alcotest.test_case "qr resolution" `Quick test_header_qr_resolution;
          Alcotest.test_case "qr saturation" `Quick test_header_qr_saturates;
          Alcotest.test_case "add_price" `Quick test_header_add_price;
          Alcotest.test_case "validation" `Quick test_header_validation;
          QCheck_alcotest.to_alcotest prop_header_roundtrip;
        ] );
      ( "reorder",
        [
          Alcotest.test_case "in order" `Quick test_reorder_in_order;
          Alcotest.test_case "holds gap, declares loss" `Quick test_reorder_holds_gap;
          Alcotest.test_case "single-route loss" `Quick test_reorder_single_route_loss;
          Alcotest.test_case "no-loss (TCP) mode" `Quick test_reorder_no_loss_mode;
          Alcotest.test_case "duplicates" `Quick test_reorder_duplicates_ignored;
          Alcotest.test_case "validation" `Quick test_reorder_validation;
          QCheck_alcotest.to_alcotest prop_reorder_delivers_in_order;
        ] );
      ("equalizer", [ Alcotest.test_case "delay equalization" `Quick test_equalizer ]);
      ("ack", [ Alcotest.test_case "collector" `Quick test_ack_collector ]);
    ]
