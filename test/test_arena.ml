(* The flat int event encoding (Arena): every hot variant must decode
   back to exactly the operands it was encoded from, over the full
   field widths the engine enforces at bootstrap — a silently
   truncated or mis-shifted field would corrupt the event stream, not
   crash it. The QCheck properties draw operands across the whole
   advertised ranges; the alcotest cases pin the tag values and the
   boundary operands (0 and the maximum) for every layout. *)

let flow_gen = QCheck.Gen.int_range 0 Arena.max_flow
let link_gen = QCheck.Gen.int_range 0 Arena.max_link
let seq_gen = QCheck.Gen.int_range 0 0xFFFFFFFF (* 32-bit, masked at source *)
let slot_gen = QCheck.Gen.int_range 0 0xFFFF (* store high-water marks *)

let prop name gen law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:500 ~name (QCheck.make gen) law)

let tag_cases () =
  (* Tag assignments are load-bearing: the engine's dispatch is an
     indexed jump on [tag code]. *)
  Alcotest.(check int) "tx_end" Arena.t_tx_end (Arena.tag (Arena.tx_end 7));
  Alcotest.(check int) "inject" Arena.t_inject (Arena.tag (Arena.inject 7));
  Alcotest.(check int) "control_tick" Arena.t_control_tick (Arena.tag Arena.control_tick);
  Alcotest.(check int) "tcp_ack" Arena.t_tcp_ack
    (Arena.tag (Arena.tcp_ack ~flow:1 ~cum:2 ~ece:false));
  Alcotest.(check int) "reorder_release" Arena.t_reorder_release
    (Arena.tag (Arena.reorder_release ~flow:1 ~slot:2));
  Alcotest.(check int) "tcp_rto" Arena.t_tcp_rto
    (Arena.tag (Arena.tcp_rto ~flow:1 ~slot:2));
  Alcotest.(check int) "flow_start" Arena.t_flow_start (Arena.tag (Arena.flow_start 7));
  Alcotest.(check int) "flow_stop" Arena.t_flow_stop (Arena.tag (Arena.flow_stop 7));
  Alcotest.(check int) "reclaim_probe" Arena.t_reclaim_probe
    (Arena.tag (Arena.reclaim_probe ~flow:1 ~route:2 ~gen:3));
  Alcotest.(check int) "ack_arrive" Arena.t_ack_arrive
    (Arena.tag (Arena.ack_arrive ~flow:1 ~slot:2));
  Alcotest.(check int) "capacity_change" Arena.t_capacity_change
    (Arena.tag (Arena.capacity_change ~link:1 ~slot:2));
  Alcotest.(check int) "loss_change" Arena.t_loss_change
    (Arena.tag (Arena.loss_change ~link:1 ~slot:2));
  Alcotest.(check int) "ctrl_change" Arena.t_ctrl_change
    (Arena.tag (Arena.ctrl_change ~slot:7))

let boundary_cases () =
  (* Extremes of every field: 0 and the enforced maximum. *)
  Alcotest.(check int) "tx_end max link" Arena.max_link
    (Arena.link (Arena.tx_end Arena.max_link));
  Alcotest.(check int) "inject max flow" Arena.max_flow
    (Arena.flow_wide (Arena.inject Arena.max_flow));
  let c = Arena.tcp_ack ~flow:Arena.max_flow ~cum:0xFFFFFFFF ~ece:true in
  Alcotest.(check int) "tcp_ack max flow" Arena.max_flow (Arena.flow c);
  Alcotest.(check int) "tcp_ack max cum" 0xFFFFFFFF (Arena.tcp_ack_cum c);
  Alcotest.(check bool) "tcp_ack ece" true (Arena.tcp_ack_ece c);
  let c = Arena.tcp_ack ~flow:0 ~cum:0 ~ece:false in
  Alcotest.(check int) "tcp_ack zero flow" 0 (Arena.flow c);
  Alcotest.(check int) "tcp_ack zero cum" 0 (Arena.tcp_ack_cum c);
  Alcotest.(check bool) "tcp_ack no ece" false (Arena.tcp_ack_ece c);
  let c = Arena.reclaim_probe ~flow:Arena.max_flow ~route:0xFF ~gen:31 in
  Alcotest.(check int) "probe max flow" Arena.max_flow (Arena.flow c);
  Alcotest.(check int) "probe max route" 0xFF (Arena.probe_route c);
  Alcotest.(check int) "probe gen" 31 (Arena.probe_gen c);
  Alcotest.check_raises "probe route too wide"
    (Invalid_argument "Arena.reclaim_probe: route id too wide") (fun () ->
      ignore (Arena.reclaim_probe ~flow:0 ~route:0x100 ~gen:0))

let roundtrip_tests =
  [
    prop "tx_end link" link_gen (fun l -> Arena.link (Arena.tx_end l) = l);
    prop "inject flow" flow_gen (fun f -> Arena.flow_wide (Arena.inject f) = f);
    prop "flow_start flow" flow_gen (fun f ->
        Arena.flow_wide (Arena.flow_start f) = f);
    prop "flow_stop flow" flow_gen (fun f ->
        Arena.flow_wide (Arena.flow_stop f) = f);
    prop "tcp_ack (flow, cum, ece)"
      QCheck.Gen.(triple flow_gen seq_gen bool)
      (fun (f, cum, ece) ->
        let c = Arena.tcp_ack ~flow:f ~cum ~ece in
        Arena.flow c = f && Arena.tcp_ack_cum c = cum && Arena.tcp_ack_ece c = ece);
    prop "reorder_release (flow, slot)"
      QCheck.Gen.(pair flow_gen slot_gen)
      (fun (f, s) ->
        let c = Arena.reorder_release ~flow:f ~slot:s in
        Arena.flow c = f && Arena.slot20 c = s);
    prop "tcp_rto (flow, slot)"
      QCheck.Gen.(pair flow_gen slot_gen)
      (fun (f, s) ->
        let c = Arena.tcp_rto ~flow:f ~slot:s in
        Arena.flow c = f && Arena.slot20 c = s);
    prop "reclaim_probe (flow, route, gen)"
      QCheck.Gen.(triple flow_gen (int_range 0 0xFF) (int_range 0 1000))
      (fun (f, r, g) ->
        let c = Arena.reclaim_probe ~flow:f ~route:r ~gen:g in
        Arena.flow c = f && Arena.probe_route c = r && Arena.probe_gen c = g);
    prop "ack_arrive (flow, slot)"
      QCheck.Gen.(pair flow_gen slot_gen)
      (fun (f, s) ->
        let c = Arena.ack_arrive ~flow:f ~slot:s in
        Arena.flow c = f && Arena.slot20 c = s);
    prop "capacity_change (link, slot)"
      QCheck.Gen.(pair link_gen slot_gen)
      (fun (l, s) ->
        let c = Arena.capacity_change ~link:l ~slot:s in
        Arena.link20 c = l && Arena.slot24 c = s);
    prop "loss_change (link, slot)"
      QCheck.Gen.(pair link_gen slot_gen)
      (fun (l, s) ->
        let c = Arena.loss_change ~link:l ~slot:s in
        Arena.link20 c = l && Arena.slot24 c = s);
    prop "ctrl_change slot" slot_gen (fun s ->
        Arena.slot4 (Arena.ctrl_change ~slot:s) = s);
    prop "tags stay distinct"
      QCheck.Gen.(pair flow_gen link_gen)
      (fun (f, l) ->
        let codes =
          [
            Arena.tx_end l;
            Arena.inject f;
            Arena.control_tick;
            Arena.tcp_ack ~flow:f ~cum:0 ~ece:false;
            Arena.reorder_release ~flow:f ~slot:0;
            Arena.tcp_rto ~flow:f ~slot:0;
            Arena.flow_start f;
            Arena.flow_stop f;
            Arena.reclaim_probe ~flow:f ~route:0 ~gen:0;
            Arena.ack_arrive ~flow:f ~slot:0;
            Arena.capacity_change ~link:l ~slot:0;
            Arena.loss_change ~link:l ~slot:0;
            Arena.ctrl_change ~slot:0;
          ]
        in
        List.length (List.sort_uniq compare (List.map Arena.tag codes)) = 13);
  ]

(* Slot stores: put/get/release across grows must never hand out an
   occupied slot or lose a payload. *)
let slots_stress () =
  let t = Arena.Slots.create () in
  let live = Hashtbl.create 64 in
  let rng = Rng.create 42 in
  for i = 0 to 9_999 do
    if Rng.bool rng && Hashtbl.length live > 0 then begin
      (* release one live slot *)
      let k = List.hd (Hashtbl.fold (fun k _ acc -> k :: acc) live []) in
      let v = Hashtbl.find live k in
      Alcotest.(check int) "payload survives" v (Arena.Slots.get t k);
      Arena.Slots.release t k;
      Hashtbl.remove live k
    end
    else begin
      let slot = Arena.Slots.put t i in
      Alcotest.(check bool) "fresh slot" false (Hashtbl.mem live slot);
      Hashtbl.replace live slot i
    end
  done;
  Hashtbl.iter
    (fun k v -> Alcotest.(check int) "final payloads" v (Arena.Slots.get t k))
    live

let fslots_roundtrip () =
  let t = Arena.Fslots.create () in
  let cell = Arena.Fslots.cell t in
  let put v =
    cell.(0) <- v;
    Arena.Fslots.put t
  in
  let slots = Array.init 100 (fun i -> put (float_of_int i *. 0.5)) in
  Array.iteri
    (fun i s ->
      Arena.Fslots.load t s;
      Alcotest.(check (float 0.0)) "fslot payload" (float_of_int i *. 0.5) cell.(0))
    slots;
  Array.iter (fun s -> Arena.Fslots.release t s) slots;
  (* every slot free again: the next 100 puts must reuse them *)
  let again = Array.init 100 (fun i -> put (float_of_int i)) in
  let sorted a = List.sort compare (Array.to_list a) in
  Alcotest.(check (list int)) "slots recycled" (sorted slots) (sorted again)

let () =
  Alcotest.run "arena"
    [
      ( "encoding",
        [
          Alcotest.test_case "tags" `Quick tag_cases;
          Alcotest.test_case "field boundaries" `Quick boundary_cases;
        ] );
      ("roundtrip", roundtrip_tests);
      ( "slots",
        [
          Alcotest.test_case "slots put/get/release stress" `Quick slots_stress;
          Alcotest.test_case "fslots roundtrip + recycle" `Quick fslots_roundtrip;
        ] );
    ]
