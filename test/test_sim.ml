(* Tests for the discrete-event engine: MAC sharing (Lemma 1),
   forwarding through the layer-2.5 header, congestion-controlled and
   fixed-rate injection, file workloads, flow start/stop, and TCP
   transport. *)

let check_float ?(eps = 1e-6) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.6f, got %.6f" msg expected actual

let fig1 () =
  let g =
    Multigraph.create ~n_nodes:3 ~n_techs:2
      ~edges:[ (0, 1, 0, 15.0); (1, 2, 0, 30.0); (0, 1, 1, 10.0) ]
  in
  (g, Domain.single_domain_per_tech g)

let saturated_flow g dom ~src ~dst =
  let comb = Multipath.find g dom ~src ~dst in
  {
    Engine.src;
    dst;
    routes = Multipath.routes comb;
    init_rates = List.map snd comb.Multipath.paths;
    workload = Workload.Saturated;
    transport = Engine.Udp;
    tcp_params = None;
    start_time = 0.0;
    stop_time = None;
  }

(* Byte pin of a run: every field of the result but the wall-clock
   [perf] goes into the digest. *)
let md5_result r =
  Digest.to_hex
    (Digest.string (Marshal.to_string (Engine.strip_perf r) [ Marshal.No_sharing ]))

let goodput_of res i =
  float_of_int res.Engine.flows.(i).Engine.received_bytes
  *. 8e-6 /. res.Engine.duration

let test_single_link_throughput () =
  (* Fixed-rate injection below capacity must be delivered 1:1. *)
  let g = Multigraph.create ~n_nodes:2 ~n_techs:1 ~edges:[ (0, 1, 0, 20.0) ] in
  let dom = Domain.single_domain_per_tech g in
  let flow =
    {
      Engine.src = 0;
      dst = 1;
      routes = [ Paths.of_links g [ 0 ] ];
      init_rates = [ 8.0 ];
      workload = Workload.Saturated;
      transport = Engine.Udp;
      tcp_params = None;
      start_time = 0.0;
      stop_time = None;
    }
  in
  let config = { Engine.default_config with enable_cc = false } in
  let res = Engine.run ~config (Rng.create 1) g dom ~flows:[ flow ] ~duration:20.0 in
  check_float ~eps:0.5 "delivered = offered" 8.0 (goodput_of res 0);
  Alcotest.(check int) "no drops" 0 res.Engine.queue_drops

let test_lemma1_mac_sharing () =
  (* Two saturated links in one collision domain with capacities 15
     and 30: equal transmission opportunities give each the rate
     1/(1/15+1/30) = 10 (Lemma 1). *)
  let g =
    Multigraph.create ~n_nodes:4 ~n_techs:1 ~edges:[ (0, 1, 0, 15.0); (2, 3, 0, 30.0) ]
  in
  let dom = Domain.single_domain_per_tech g in
  let mk src dst links rate =
    {
      Engine.src;
      dst;
      routes = [ Paths.of_links g links ];
      init_rates = [ rate ];
      workload = Workload.Saturated;
      transport = Engine.Udp;
      tcp_params = None;
      start_time = 0.0;
      stop_time = None;
    }
  in
  (* Overload both links; MAC fairness should equalize goodputs.
     Collisions off: this checks the idealized sharing of Lemma 1. *)
  let config =
    { Engine.default_config with enable_cc = false; collision_prob = 0.0 }
  in
  let res =
    Engine.run ~config (Rng.create 2) g dom
      ~flows:[ mk 0 1 [ 0 ] 40.0; mk 2 3 [ 2 ] 40.0 ]
      ~duration:30.0
  in
  check_float ~eps:1.0 "flow a at Rmax" 10.0 (goodput_of res 0);
  check_float ~eps:1.0 "flow b at Rmax" 10.0 (goodput_of res 1)

let test_fig1_cc_run () =
  let g, dom = fig1 () in
  let flow = saturated_flow g dom ~src:0 ~dst:2 in
  let config = { Engine.default_config with collision_prob = 0.0 } in
  let res = Engine.run ~config (Rng.create 3) g dom ~flows:[ flow ] ~duration:60.0 in
  let gp = goodput_of res 0 in
  Alcotest.(check bool) "close to 16.67 optimum" true (gp > 14.0 && gp < 17.5);
  (* Rate series recorded every control period. *)
  Alcotest.(check bool) "rate series populated" true
    (List.length res.Engine.flows.(0).Engine.rate_series > 500)

let test_multihop_forwarding () =
  (* Three-hop chain across alternating mediums: packets must be
     relayed via the source-route header. *)
  let g =
    Multigraph.create ~n_nodes:4 ~n_techs:2
      ~edges:[ (0, 1, 0, 30.0); (1, 2, 1, 30.0); (2, 3, 0, 30.0) ]
  in
  let dom = Domain.single_domain_per_tech g in
  let flow = saturated_flow g dom ~src:0 ~dst:3 in
  Alcotest.(check bool) "multi-hop route" true
    (List.for_all (fun p -> Paths.hops p = 3) flow.Engine.routes);
  let res = Engine.run (Rng.create 4) g dom ~flows:[ flow ] ~duration:30.0 in
  Alcotest.(check bool) "delivered end to end" true (goodput_of res 0 > 10.0)

let test_flow_start_stop () =
  let g, dom = fig1 () in
  let flow =
    { (saturated_flow g dom ~src:0 ~dst:2) with start_time = 10.0; stop_time = Some 20.0 }
  in
  let res = Engine.run (Rng.create 5) g dom ~flows:[ flow ] ~duration:40.0 in
  let series = res.Engine.flows.(0).Engine.goodput_series in
  let in_window lo hi =
    List.filter_map (fun (t, gp) -> if t > lo && t <= hi then Some gp else None) series
  in
  check_float ~eps:0.2 "silent before start" 0.0 (Stats.mean (in_window 0.0 9.0));
  Alcotest.(check bool) "active during window" true
    (Stats.mean (in_window 12.0 20.0) > 5.0);
  check_float ~eps:0.5 "silent after stop" 0.0 (Stats.mean (in_window 25.0 40.0))

let test_file_completion () =
  let g = Multigraph.create ~n_nodes:2 ~n_techs:1 ~edges:[ (0, 1, 0, 20.0) ] in
  let dom = Domain.single_domain_per_tech g in
  let flow =
    {
      Engine.src = 0;
      dst = 1;
      routes = [ Paths.of_links g [ 0 ] ];
      init_rates = [ 10.0 ];
      workload = Workload.File { bytes = 5_000_000 };
      transport = Engine.Udp;
      tcp_params = None;
      start_time = 0.0;
      stop_time = None;
    }
  in
  let config = { Engine.default_config with enable_cc = false } in
  let res = Engine.run ~config (Rng.create 6) g dom ~flows:[ flow ] ~duration:30.0 in
  match res.Engine.flows.(0).Engine.completions with
  | [ (start, d) ] ->
    check_float ~eps:1e-6 "starts at 0" 0.0 start;
    (* 40 Mbit at 10 Mbps = ~4 s. *)
    check_float ~eps:0.8 "completion time" 4.0 d;
    Alcotest.(check bool) "received everything" true
      (res.Engine.flows.(0).Engine.received_bytes >= 5_000_000)
  | other -> Alcotest.failf "expected one completion, got %d" (List.length other)

let test_poisson_files_sequential () =
  let g = Multigraph.create ~n_nodes:2 ~n_techs:1 ~edges:[ (0, 1, 0, 50.0) ] in
  let dom = Domain.single_domain_per_tech g in
  let flow =
    {
      Engine.src = 0;
      dst = 1;
      routes = [ Paths.of_links g [ 0 ] ];
      init_rates = [ 40.0 ];
      workload = Workload.Poisson_files { bytes = 1_000_000; mean_gap_s = 3.0; count = 4 };
      transport = Engine.Udp;
      tcp_params = None;
      start_time = 0.0;
      stop_time = None;
    }
  in
  let config = { Engine.default_config with enable_cc = false } in
  let res = Engine.run ~config (Rng.create 7) g dom ~flows:[ flow ] ~duration:120.0 in
  let cs = res.Engine.flows.(0).Engine.completions in
  Alcotest.(check int) "all four complete" 4 (List.length cs);
  List.iter
    (fun (_, d) -> Alcotest.(check bool) "duration sane" true (d > 0.0 && d < 20.0))
    cs

let test_poisson_files_serialized () =
  (* Offered arrivals far faster than transfers: the engine must
     serialize actual starts behind completions (the Workload
     closed-loop contract — a file cannot start before the previous
     one finished), so completions never overlap and every file gets
     a full service time. *)
  let g = Multigraph.create ~n_nodes:2 ~n_techs:1 ~edges:[ (0, 1, 0, 20.0) ] in
  let dom = Domain.single_domain_per_tech g in
  let flow =
    {
      Engine.src = 0;
      dst = 1;
      routes = [ Paths.of_links g [ 0 ] ];
      init_rates = [ 15.0 ];
      workload =
        Workload.Poisson_files { bytes = 2_000_000; mean_gap_s = 0.01; count = 3 };
      transport = Engine.Udp;
      tcp_params = None;
      start_time = 0.0;
      stop_time = None;
    }
  in
  let config = { Engine.default_config with enable_cc = false } in
  let res = Engine.run ~config (Rng.create 77) g dom ~flows:[ flow ] ~duration:60.0 in
  let cs = res.Engine.flows.(0).Engine.completions in
  Alcotest.(check int) "all three complete" 3 (List.length cs);
  let ideal = 2_000_000.0 *. 8.0 /. 15e6 in
  ignore
    (List.fold_left
       (fun prev_done (start, d) ->
         Alcotest.(check bool) "start not before previous completion" true
           (start >= prev_done -. 1e-9);
         Alcotest.(check bool) "full service time" true (d >= 0.8 *. ideal);
         Alcotest.(check bool) "duration sane" true (d < 10.0);
         start +. d)
       0.0 cs)

let test_empirical_open_loop () =
  (* Open-loop schedule on one connection: transfers arriving while an
     earlier one is in flight queue behind it (FIFO), and their
     completion times include the wait. 2 MB at 10 Mbit/s takes
     ~1.6 s, so the 0.5 s and 1.0 s arrivals both wait. *)
  let g = Multigraph.create ~n_nodes:2 ~n_techs:1 ~edges:[ (0, 1, 0, 20.0) ] in
  let dom = Domain.single_domain_per_tech g in
  let files = [ (0.0, 2_000_000); (0.5, 500_000); (1.0, 100_000) ] in
  let flow =
    {
      Engine.src = 0;
      dst = 1;
      routes = [ Paths.of_links g [ 0 ] ];
      init_rates = [ 10.0 ];
      workload = Workload.Empirical { files; pacing = Workload.Cbr };
      transport = Engine.Udp;
      tcp_params = None;
      start_time = 0.0;
      stop_time = None;
    }
  in
  let config = { Engine.default_config with enable_cc = false } in
  let res = Engine.run ~config (Rng.create 78) g dom ~flows:[ flow ] ~duration:30.0 in
  match res.Engine.flows.(0).Engine.completions with
  | [ (s1, d1); (s2, d2); (s3, d3) ] ->
    check_float ~eps:1e-6 "first starts at its arrival" 0.0 s1;
    check_float ~eps:0.4 "first takes ~1.6 s" 1.6 d1;
    (* Service starts at the previous completion, not the arrival. *)
    check_float ~eps:1e-6 "second queues behind first" (s1 +. d1) s2;
    check_float ~eps:1e-6 "third queues behind second" (s2 +. d2) s3;
    Alcotest.(check bool) "third's FCT includes its wait" true
      (s3 +. d3 -. 1.0 > d3);
    Alcotest.(check bool) "everything delivered" true
      (res.Engine.flows.(0).Engine.received_bytes >= 2_600_000)
  | other -> Alcotest.failf "expected three completions, got %d" (List.length other)

let test_empirical_poisson_pacing () =
  (* Poisson pacing keeps the same mean injection rate (goodput within
     a few percent of CBR) while staying inside the checker's
     token-bucket budget; the run stays deterministic. *)
  let g = Multigraph.create ~n_nodes:2 ~n_techs:1 ~edges:[ (0, 1, 0, 20.0) ] in
  let dom = Domain.single_domain_per_tech g in
  let mk pacing =
    {
      Engine.src = 0;
      dst = 1;
      routes = [ Paths.of_links g [ 0 ] ];
      init_rates = [ 10.0 ];
      workload = Workload.Empirical { files = [ (0.0, 8_000_000) ]; pacing };
      transport = Engine.Udp;
      tcp_params = None;
      start_time = 0.0;
      stop_time = None;
    }
  in
  let config = { Engine.default_config with enable_cc = false } in
  let run pacing =
    Engine.strip_perf
      (Engine.run ~config ~invariants:(Invariants.create ()) (Rng.create 79) g dom
         ~flows:[ mk pacing ] ~duration:10.0)
  in
  let cbr = run Workload.Cbr and poisson = run Workload.Poisson_paced in
  let gp r = float_of_int r.Engine.flows.(0).Engine.received_bytes in
  Alcotest.(check bool) "same mean rate" true
    (Float.abs (gp cbr -. gp poisson) /. gp cbr < 0.05);
  Alcotest.(check bool) "poisson run deterministic" true
    (poisson = run Workload.Poisson_paced);
  Alcotest.(check string) "poisson run bytes" "d0685b3e89037882e4ccff9344c1028d"
    (md5_result poisson)

let test_empirical_validation () =
  let g = Multigraph.create ~n_nodes:2 ~n_techs:1 ~edges:[ (0, 1, 0, 20.0) ] in
  let dom = Domain.single_domain_per_tech g in
  let mk files =
    {
      Engine.src = 0;
      dst = 1;
      routes = [ Paths.of_links g [ 0 ] ];
      init_rates = [ 10.0 ];
      workload = Workload.Empirical { files; pacing = Workload.Cbr };
      transport = Engine.Udp;
      tcp_params = None;
      start_time = 0.0;
      stop_time = None;
    }
  in
  let rejected files =
    match
      Engine.run (Rng.create 80) g dom ~flows:[ mk files ] ~duration:1.0
    with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "decreasing arrivals rejected" true
    (rejected [ (1.0, 1000); (0.5, 1000) ]);
  Alcotest.(check bool) "negative arrival rejected" true
    (rejected [ (-1.0, 1000) ]);
  Alcotest.(check bool) "non-positive size rejected" true
    (rejected [ (0.0, 0) ]);
  Alcotest.(check bool) "empty schedule fine" true
    (not (rejected []))

let test_queue_drops_under_overload () =
  let g = Multigraph.create ~n_nodes:2 ~n_techs:1 ~edges:[ (0, 1, 0, 5.0) ] in
  let dom = Domain.single_domain_per_tech g in
  let flow =
    {
      Engine.src = 0;
      dst = 1;
      routes = [ Paths.of_links g [ 0 ] ];
      init_rates = [ 50.0 ];
      workload = Workload.Saturated;
      transport = Engine.Udp;
      tcp_params = None;
      start_time = 0.0;
      stop_time = None;
    }
  in
  let config = { Engine.default_config with enable_cc = false } in
  let res = Engine.run ~config (Rng.create 8) g dom ~flows:[ flow ] ~duration:10.0 in
  Alcotest.(check bool) "drops happen" true (res.Engine.queue_drops > 0);
  (* Goodput still capped by capacity. *)
  Alcotest.(check bool) "correct cap" true (goodput_of res 0 < 5.5)

let test_collisions_under_contention () =
  (* With the CSMA collision model on, blasting two backlogged links
     in one domain loses frames to collisions; a lone link does not. *)
  let g =
    Multigraph.create ~n_nodes:4 ~n_techs:1 ~edges:[ (0, 1, 0, 20.0); (2, 3, 0, 20.0) ]
  in
  let dom = Domain.single_domain_per_tech g in
  let mk src dst l =
    {
      Engine.src;
      dst;
      routes = [ Paths.of_links g [ l ] ];
      init_rates = [ 40.0 ];
      workload = Workload.Saturated;
      transport = Engine.Udp;
      tcp_params = None;
      start_time = 0.0;
      stop_time = None;
    }
  in
  let config = { Engine.default_config with enable_cc = false } in
  let both =
    Engine.run ~config (Rng.create 21) g dom ~flows:[ mk 0 1 0; mk 2 3 2 ]
      ~duration:20.0
  in
  let alone =
    Engine.run ~config (Rng.create 22) g dom ~flows:[ mk 0 1 0 ] ~duration:20.0
  in
  let ideal_share = 10.0 in
  Alcotest.(check bool) "contention costs throughput" true
    (goodput_of both 0 < ideal_share -. 0.5);
  Alcotest.(check bool) "lone link loses nothing" true (goodput_of alone 0 > 19.0)

let test_link_failure_reroutes_traffic () =
  (* Two single-hop routes on different mediums; the PLC link dies at
     t = 20 s. The controller must starve the dead route and keep the
     flow alive on WiFi (the Section 6.1 failure reaction). *)
  let g =
    Multigraph.create ~n_nodes:2 ~n_techs:2
      ~edges:[ (0, 1, 0, 20.0) (* wifi, links 0/1 *); (0, 1, 1, 20.0) (* plc, links 2/3 *) ]
  in
  let dom = Domain.single_domain_per_tech g in
  let routes = [ Paths.of_links g [ 0 ]; Paths.of_links g [ 2 ] ] in
  let flow =
    {
      Engine.src = 0;
      dst = 1;
      routes;
      init_rates = [ 20.0; 20.0 ];
      workload = Workload.Saturated;
      transport = Engine.Udp;
      tcp_params = None;
      start_time = 0.0;
      stop_time = None;
    }
  in
  let res =
    Engine.run ~link_events:[ (20.0, 2, 0.0); (20.0, 3, 0.0) ] (Rng.create 11) g dom
      ~flows:[ flow ] ~duration:60.0
  in
  let fr = res.Engine.flows.(0) in
  let mean_window lo hi =
    Stats.mean
      (List.filter_map
         (fun (t, gp) -> if t > lo && t <= hi then Some gp else None)
         fr.Engine.goodput_series)
  in
  (* Before: both mediums ~40 Mbps; after: only WiFi ~20. *)
  Alcotest.(check bool) "both mediums before" true (mean_window 5.0 19.0 > 30.0);
  let after = mean_window 35.0 60.0 in
  Alcotest.(check bool) "alive on wifi after failure" true (after > 14.0);
  Alcotest.(check bool) "plc contribution gone" true (after < 25.0);
  (* The controller's final rate on the dead route collapses. *)
  Alcotest.(check bool) "dead route starved" true (fr.Engine.final_rates.(1) < 3.0)

let test_capacity_drop_adapts () =
  (* A capacity drop (not failure) on the only link: goodput follows. *)
  let g = Multigraph.create ~n_nodes:2 ~n_techs:1 ~edges:[ (0, 1, 0, 40.0) ] in
  let dom = Domain.single_domain_per_tech g in
  let flow =
    {
      Engine.src = 0;
      dst = 1;
      routes = [ Paths.of_links g [ 0 ] ];
      init_rates = [ 40.0 ];
      workload = Workload.Saturated;
      transport = Engine.Udp;
      tcp_params = None;
      start_time = 0.0;
      stop_time = None;
    }
  in
  let res =
    Engine.run ~link_events:[ (30.0, 0, 10.0); (30.0, 1, 10.0) ] (Rng.create 12) g dom
      ~flows:[ flow ] ~duration:70.0
  in
  let fr = res.Engine.flows.(0) in
  let mean_window lo hi =
    Stats.mean
      (List.filter_map
         (fun (t, gp) -> if t > lo && t <= hi then Some gp else None)
         fr.Engine.goodput_series)
  in
  Alcotest.(check bool) "full rate before" true (mean_window 5.0 29.0 > 30.0);
  let after = mean_window 45.0 70.0 in
  Alcotest.(check bool) "adapted down" true (after < 12.0);
  Alcotest.(check bool) "still flowing" true (after > 6.0)

let test_delay_grows_without_margin () =
  (* Section 4.1: airtime near 1 makes delays blow up; the margin
     buys queue headroom. *)
  let g = Multigraph.create ~n_nodes:2 ~n_techs:1 ~edges:[ (0, 1, 0, 20.0) ] in
  let dom = Domain.single_domain_per_tech g in
  let flow =
    {
      Engine.src = 0;
      dst = 1;
      routes = [ Paths.of_links g [ 0 ] ];
      init_rates = [ 20.0 ];
      workload = Workload.Saturated;
      transport = Engine.Udp;
      tcp_params = None;
      start_time = 0.0;
      stop_time = None;
    }
  in
  let run delta =
    let config = { Engine.default_config with delta; collision_prob = 0.0 } in
    (Engine.run ~config (Rng.create 13) g dom ~flows:[ flow ] ~duration:40.0)
      .Engine.flows.(0)
  in
  let tight = run 0.0 and slack = run 0.2 in
  Alcotest.(check bool) "delays measured" true (tight.Engine.mean_delay > 0.0);
  Alcotest.(check bool) "margin cuts delay" true
    (slack.Engine.mean_delay < tight.Engine.mean_delay);
  Alcotest.(check bool) "p95 >= mean" true
    (tight.Engine.p95_delay >= tight.Engine.mean_delay)

let test_tcp_transfer_over_engine () =
  let g, dom = fig1 () in
  let comb = Multipath.find g dom ~src:0 ~dst:2 in
  let flow =
    {
      Engine.src = 0;
      dst = 2;
      routes = Multipath.routes comb;
      init_rates = List.map snd comb.Multipath.paths;
      workload = Workload.File { bytes = 10_000_000 };
      transport = Engine.Tcp_transport;
      tcp_params = None;
      start_time = 0.0;
      stop_time = None;
    }
  in
  let config =
    { Engine.default_config with delta = 0.3; delay_equalize = true }
  in
  let res = Engine.run ~config (Rng.create 9) g dom ~flows:[ flow ] ~duration:60.0 in
  match res.Engine.flows.(0).Engine.completions with
  | [ (_, d) ] ->
    (* 80 Mbit at ~11.7 Mbps allocation -> ~7-12 s. *)
    Alcotest.(check bool) "completes in sane time" true (d > 4.0 && d < 30.0)
  | _ -> Alcotest.fail "TCP transfer did not complete"

(* A TCP flow whose first-hop links are dead from 2 s to 5 s: no
   frame leaves the source, no ack returns, and the sender times out
   and backs off while the controller's acks keep calling it. Each
   RTO deadline is queued once, so the event queue stays within the
   engine's own pre-size (64 + 2 per link + 8 per flow) instead of
   filling with copies of the same timer. The delivery is pinned: the
   skipped copies could only have popped as no-ops. *)
let test_tcp_outage_timer_queue () =
  let g, dom = fig1 () in
  let comb = Multipath.find g dom ~src:0 ~dst:2 in
  let routes = Multipath.routes comb in
  let first_hops =
    List.sort_uniq compare (List.map (fun p -> List.hd p.Paths.links) routes)
  in
  Alcotest.(check (list int)) "both first hops" [ 0; 4 ] first_hops;
  let flow =
    {
      Engine.src = 0;
      dst = 2;
      routes;
      init_rates = List.map snd comb.Multipath.paths;
      workload = Workload.Saturated;
      transport = Engine.Tcp_transport;
      tcp_params = None;
      start_time = 0.0;
      stop_time = None;
    }
  in
  let link_events =
    List.concat_map
      (fun l -> [ (2.0, l, 0.0); (5.0, l, Multigraph.capacity g l) ])
      first_hops
  in
  let config =
    { Engine.default_config with delta = 0.3; delay_equalize = true }
  in
  let res =
    Engine.run ~config ~link_events (Rng.create 9) g dom ~flows:[ flow ]
      ~duration:6.0
  in
  let fr = res.Engine.flows.(0) in
  Alcotest.(check int) "received bytes" 5_424_000 fr.Engine.received_bytes;
  Alcotest.(check int) "frames lost" 0 fr.Engine.frames_lost;
  let bound = 64 + (2 * Multigraph.num_links g) + 8 in
  let peak = res.Engine.perf.Engine.peak_queue_depth in
  if peak > bound then
    Alcotest.failf "peak event-queue depth %d exceeds the pre-size %d" peak bound

let test_validation_errors () =
  let g, dom = fig1 () in
  let base = saturated_flow g dom ~src:0 ~dst:2 in
  let bad f =
    try
      ignore (Engine.run (Rng.create 1) g dom ~flows:[ f ] ~duration:1.0);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "negative start" true (bad { base with Engine.start_time = -1.0 });
  Alcotest.(check bool) "rate/route mismatch" true (bad { base with Engine.init_rates = [] })

let test_determinism () =
  let g, dom = fig1 () in
  let run () =
    let flow = saturated_flow g dom ~src:0 ~dst:2 in
    let res = Engine.run (Rng.create 42) g dom ~flows:[ flow ] ~duration:10.0 in
    (res.Engine.flows.(0).Engine.received_bytes, res.Engine.events_processed)
  in
  Alcotest.(check bool) "same seed, same run" true (run () = run ())

let prop_engine_goodput_below_optimal =
  QCheck.Test.make ~name:"engine goodput never exceeds the LP optimum" ~count:8
    QCheck.(int_bound 10000)
    (fun seed ->
      let inst = Residential.generate (Rng.create seed) in
      let g = Builder.graph inst Builder.Hybrid in
      let dom = Domain.of_instance inst Builder.Hybrid g in
      let comb = Multipath.find g dom ~src:0 ~dst:9 in
      match Multipath.routes comb with
      | [] -> true
      | routes ->
        let flow =
          {
            Engine.src = 0;
            dst = 9;
            routes;
            init_rates = List.map snd comb.Multipath.paths;
            workload = Workload.Saturated;
            transport = Engine.Udp;
            tcp_params = None;
            start_time = 0.0;
            stop_time = None;
          }
        in
        let res = Engine.run (Rng.create (seed + 1)) g dom ~flows:[ flow ] ~duration:15.0 in
        let gp =
          float_of_int res.Engine.flows.(0).Engine.received_bytes *. 8e-6 /. 15.0
        in
        let opt = Opt_solver.max_throughput Rate_region.Exact g dom ~src:0 ~dst:9 in
        gp <= (opt *. 1.05) +. 1.0)

(* ---------- fault injection ---------- *)

let one_link_flow g ~rate =
  {
    Engine.src = 0;
    dst = 1;
    routes = [ Paths.of_links g [ 0 ] ];
    init_rates = [ rate ];
    workload = Workload.Saturated;
    transport = Engine.Udp;
    tcp_params = None;
    start_time = 0.0;
    stop_time = None;
  }

let mean_window series lo hi =
  Stats.mean
    (List.filter_map (fun (t, gp) -> if t > lo && t <= hi then Some gp else None) series)

let test_fault_tie_break () =
  (* Contradictory same-link, same-time actions: the documented
     tie-break is plan order, last wins. Down-then-set leaves the
     link alive (but flushed); set-then-down leaves it dead. Neither
     may crash or corrupt the accounting. *)
  let g = Multigraph.create ~n_nodes:2 ~n_techs:1 ~edges:[ (0, 1, 0, 20.0) ] in
  let dom = Domain.single_domain_per_tech g in
  let config = { Engine.default_config with enable_cc = false } in
  let run plan =
    let compiled = Fault.compile g plan in
    let inv = Invariants.create ~mode:`Collect () in
    let res =
      Engine.run ~config ~invariants:inv
        ~link_events:compiled.Fault.link_events (Rng.create 31) g dom
        ~flows:[ one_link_flow g ~rate:8.0 ]
        ~duration:10.0
    in
    Alcotest.(check (list string)) "no invariant violations" []
      (List.map Invariants.describe (Invariants.violations inv));
    mean_window res.Engine.flows.(0).Engine.goodput_series 6.0 10.0
  in
  let down = Fault.Link_down { at = 5.0; link = 0 } in
  let set = Fault.Capacity_set { at = 5.0; link = 0; capacity = 20.0 } in
  Alcotest.(check bool) "down then set: link survives" true (run [ down; set ] > 6.0);
  Alcotest.(check bool) "set then down: link dead" true (run [ set; down ] < 0.5)

let test_full_loss_window () =
  (* prob = 1.0 loses every granted frame inside the window; the
     accounting must stay clean and delivery must resume after. *)
  let g = Multigraph.create ~n_nodes:2 ~n_techs:1 ~edges:[ (0, 1, 0, 20.0) ] in
  let dom = Domain.single_domain_per_tech g in
  let config = { Engine.default_config with enable_cc = false } in
  let inv = Invariants.create ~mode:`Collect () in
  let res =
    Engine.run ~config ~invariants:inv
      ~loss_events:[ (2.0, 0, 1.0); (4.0, 0, 0.0) ]
      (Rng.create 32) g dom
      ~flows:[ one_link_flow g ~rate:8.0 ]
      ~duration:8.0
  in
  Alcotest.(check (list string)) "no invariant violations" []
    (List.map Invariants.describe (Invariants.violations inv));
  let series = res.Engine.flows.(0).Engine.goodput_series in
  Alcotest.(check bool) "flows before the window" true (mean_window series 0.0 2.0 > 6.0);
  check_float ~eps:0.5 "starved inside the window" 0.0 (mean_window series 2.5 4.0);
  Alcotest.(check bool) "resumes after the window" true (mean_window series 5.0 8.0 > 6.0)

let test_plan_off_route_mac () =
  (* An interface-hash collision sends the codec walk off the declared
     route S->v->u->D: at v the egress lookup for u's hash finds the
     later link v->w, whose receiver carries the same hash, and w
     forwards to D. Links v->w and w->D hold frames only through the
     forwarding plan, never through a route, and the MAC must still
     sense them. S->v is on a second medium, so frames reach v at any
     time, and a second flow D->u keeps the first medium busy: with
     the invariant checker's medium-occupancy rule (which walks the
     whole domain) no two first-medium links may ever be on the air
     together. *)
  let seen = Hashtbl.create 1024 in
  let rec collide n =
    let h = Route_codec.iface_hash ~node:n ~tech:0 in
    match Hashtbl.find_opt seen h with
    | Some m -> (m, n)
    | None ->
      Hashtbl.add seen h n;
      collide (n + 1)
  in
  let u, w = collide 3 in
  let s = 0 and v = 1 and d = 2 in
  let g =
    Multigraph.create ~n_nodes:(w + 1) ~n_techs:2
      ~edges:
        [
          (s, v, 1, 20.0); (v, u, 0, 20.0); (u, d, 0, 20.0);
          (v, w, 0, 20.0); (w, d, 0, 20.0);
        ]
  in
  let dom = Domain.single_domain_per_tech g in
  let v_to_w = 6 and w_to_d = 8 and d_to_u = 5 in
  let flow =
    {
      (one_link_flow g ~rate:12.0) with
      Engine.dst = d;
      routes = [ Paths.of_links g [ 0; 2; 4 ] ];
    }
  in
  let cross =
    {
      (one_link_flow g ~rate:12.0) with
      Engine.src = d;
      dst = u;
      routes = [ Paths.of_links g [ d_to_u ] ];
    }
  in
  let config = { Engine.default_config with enable_cc = false } in
  let inv = Invariants.create ~mode:`Collect () in
  let sink, got = Obs.Trace.collector () in
  let res =
    Engine.run ~config ~invariants:inv ~trace:sink (Rng.create 41) g dom
      ~flows:[ flow; cross ] ~duration:3.0
  in
  Alcotest.(check (list string)) "no invariant violations" []
    (List.map Invariants.describe (Invariants.violations inv));
  let granted l =
    List.exists
      (function Obs.Trace.Mac_grant { link; _ } -> link = l | _ -> false)
      (got ())
  in
  Alcotest.(check bool) "frames leave the route at v" true
    (granted v_to_w && granted w_to_d);
  Alcotest.(check bool) "route links past v stay idle" false (granted 2 || granted 4);
  Alcotest.(check bool) "delivered" true (res.Engine.flows.(0).Engine.received_bytes > 0);
  Alcotest.(check bool) "cross flow delivered" true
    (res.Engine.flows.(1).Engine.received_bytes > 0)

let count_drops events reason =
  List.length
    (List.filter
       (function
         | Obs.Trace.Drop { reason = r; _ } -> r = reason
         | _ -> false)
       events)

let test_fault_drops_not_queue_drops () =
  (* Drop-accounting pin: frames consumed by a fault plan's loss
     window are [Fault_injected] drops and must NOT count toward
     [result.queue_drops] — that counter means buffer rejections. *)
  let g = Multigraph.create ~n_nodes:2 ~n_techs:1 ~edges:[ (0, 1, 0, 20.0) ] in
  let dom = Domain.single_domain_per_tech g in
  let config = { Engine.default_config with enable_cc = false } in
  let sink, got = Obs.Trace.collector () in
  let res =
    Engine.run ~config ~trace:sink
      ~loss_events:[ (2.0, 0, 1.0); (4.0, 0, 0.0) ]
      (Rng.create 32) g dom
      ~flows:[ one_link_flow g ~rate:8.0 ]
      ~duration:8.0
  in
  Alcotest.(check bool) "loss window consumed frames" true
    (count_drops (got ()) Obs.Trace.Fault_injected > 0);
  Alcotest.(check int) "no overflow drops traced" 0
    (count_drops (got ()) Obs.Trace.Queue_overflow);
  Alcotest.(check int) "fault losses are not queue drops" 0
    res.Engine.queue_drops

let test_overflow_drops_match_trace () =
  (* The other side of the pin: under overload every queue drop is a
     [Queue_overflow] trace event, one for one. *)
  let g = Multigraph.create ~n_nodes:2 ~n_techs:1 ~edges:[ (0, 1, 0, 5.0) ] in
  let dom = Domain.single_domain_per_tech g in
  let config = { Engine.default_config with enable_cc = false } in
  let sink, got = Obs.Trace.collector () in
  let res =
    Engine.run ~config ~trace:sink (Rng.create 8) g dom
      ~flows:[ one_link_flow g ~rate:50.0 ]
      ~duration:5.0
  in
  Alcotest.(check bool) "overload drops" true (res.Engine.queue_drops > 0);
  Alcotest.(check int) "queue_drops = traced overflows"
    res.Engine.queue_drops
    (count_drops (got ()) Obs.Trace.Queue_overflow)

let test_buffer_pool_admission () =
  (* Finite shared buffers: an overloaded link behind a small shared
     pool rejects (tail-drops) once the DT threshold is hit, marks CE
     past the ECN threshold, and the pool peak never exceeds the
     configured bytes. result.ecn_marks must equal the number of
     Ecn_mark trace events. *)
  let g = Multigraph.create ~n_nodes:2 ~n_techs:1 ~edges:[ (0, 1, 0, 5.0) ] in
  let dom = Domain.single_domain_per_tech g in
  let fb = Engine.default_config.Engine.frame_bytes in
  let pool = 4 * fb in
  let config =
    {
      Engine.default_config with
      enable_cc = false;
      buffers =
        Some
          {
            Engine.policy = Engine.Dynamic_threshold 1.0;
            pool_bytes = pool;
            ecn_threshold_bytes = Some (2 * fb);
          };
    }
  in
  let sink, got = Obs.Trace.collector () in
  let res =
    Engine.run ~config ~trace:sink (Rng.create 8) g dom
      ~flows:[ one_link_flow g ~rate:50.0 ]
      ~duration:5.0
  in
  Alcotest.(check bool) "pool rejections counted" true
    (res.Engine.queue_drops > 0);
  Alcotest.(check int) "rejections traced as overflow"
    res.Engine.queue_drops
    (count_drops (got ()) Obs.Trace.Queue_overflow);
  Alcotest.(check bool) "frames marked" true (res.Engine.ecn_marks > 0);
  let traced_marks =
    List.length
      (List.filter
         (function Obs.Trace.Ecn_mark _ -> true | _ -> false)
         (got ()))
  in
  Alcotest.(check int) "ecn_marks = traced marks" res.Engine.ecn_marks
    traced_marks;
  Alcotest.(check bool) "pool peak positive" true
    (res.Engine.buffer_peak_bytes > 0);
  Alcotest.(check bool) "pool peak within bound" true
    (res.Engine.buffer_peak_bytes <= pool)

let test_static_stricter_than_dt () =
  (* On a two-port node the static partition caps each port at half
     the pool. DT with alpha=1 self-limits a lone busy port to the
     same half (occ <= pool - occ), but a larger alpha lets it claim
     alpha/(1+alpha) of the pool — strictly more than static. *)
  let g =
    Multigraph.create ~n_nodes:3 ~n_techs:1
      ~edges:[ (0, 1, 0, 5.0); (0, 2, 0, 5.0) ]
  in
  let dom = Domain.single_domain_per_tech g in
  let fb = Engine.default_config.Engine.frame_bytes in
  let run policy =
    let config =
      {
        Engine.default_config with
        enable_cc = false;
        buffers =
          Some
            {
              Engine.policy;
              pool_bytes = 8 * fb;
              ecn_threshold_bytes = None;
            };
      }
    in
    Engine.run ~config (Rng.create 8) g dom
      ~flows:[ one_link_flow g ~rate:50.0 ]
      ~duration:5.0
  in
  let static_run = run Engine.Static in
  let static = static_run.Engine.buffer_peak_bytes in
  let dt = (run (Engine.Dynamic_threshold 4.0)).Engine.buffer_peak_bytes in
  Alcotest.(check bool) "static caps at the partition" true (static <= 4 * fb);
  Alcotest.(check bool) "DT can exceed the static share" true (dt > static);
  Alcotest.(check string) "static run bytes" "7a3a6db8e26038cd860d65559c3a45be"
    (md5_result static_run)

let test_ctrl_faults_survivable () =
  (* A total ACK blackout early in the run: the controller stalls but
     the datapath keeps forwarding, and rates resume adapting after. *)
  let g, dom = fig1 () in
  let flow = saturated_flow g dom ~src:0 ~dst:2 in
  let res =
    Engine.run
      ~ctrl_events:[ (1.0, 1.0, 0.0); (3.0, 0.0, 0.05); (5.0, 0.0, 0.0) ]
      (Rng.create 33) g dom ~flows:[ flow ] ~duration:20.0
  in
  Alcotest.(check bool) "flow survives control faults" true (goodput_of res 0 > 8.0)

let test_flapping_probe_chains () =
  (* Crash/restart flapping of a relay node, faster than the reclaim
     backoff drains: after every Route_dead the traced reclaim-probe
     attempts must restart at 0 and increment by exactly one — a probe
     chain left over from a previous outage may not survive the
     restore/re-death cycle (it would double-schedule probes and
     consume backoff jitter draws twice per real attempt). *)
  let g =
    Multigraph.create ~n_nodes:3 ~n_techs:2
      ~edges:
        [
          (0, 1, 0, 20.0) (* wifi direct, links 0/1 *);
          (0, 2, 1, 20.0) (* plc to relay, links 2/3 *);
          (2, 1, 1, 20.0) (* plc from relay, links 4/5 *);
        ]
  in
  let dom = Domain.single_domain_per_tech g in
  let flow =
    {
      Engine.src = 0;
      dst = 1;
      routes = [ Paths.of_links g [ 0 ]; Paths.of_links g [ 2; 4 ] ];
      init_rates = [ 15.0; 15.0 ];
      workload = Workload.Saturated;
      transport = Engine.Udp;
      tcp_params = None;
      start_time = 0.0;
      stop_time = None;
    }
  in
  let plan =
    [ Fault.Node_flap { at = 2.0; until = 16.0; node = 2; period = 1.5; duty = 0.4 } ]
  in
  let compiled = Fault.compile g plan in
  let config = { Engine.default_config with Engine.dead_route = Engine.Heal } in
  let sink, got = Obs.Trace.collector () in
  ignore
    (Engine.run ~config ~trace:sink
       ~link_events:compiled.Fault.link_events (Rng.create 47) g dom
       ~flows:[ flow ] ~duration:18.0);
  let deaths = ref 0 and restores = ref 0 and probes = ref 0 in
  (* expected.(route) = next legal probe attempt; -1 = not dead, no
     probe may arrive at all. *)
  let expected = Array.make 2 (-1) in
  List.iter
    (function
      | Obs.Trace.Route_dead { route; _ } ->
        incr deaths;
        expected.(route) <- 0
      | Obs.Trace.Route_restored { route; _ } ->
        incr restores;
        expected.(route) <- -1
      | Obs.Trace.Route_probe { route; attempt; _ } ->
        incr probes;
        if expected.(route) < 0 then
          Alcotest.failf "probe on live route %d (attempt %d)" route attempt;
        if attempt <> expected.(route) then
          Alcotest.failf
            "route %d: probe attempt %d, expected %d — stale probe chain"
            route attempt expected.(route);
        expected.(route) <- attempt + 1
      | _ -> ())
    (got ());
  (* The flap must actually cycle the relay route several times for
     the pin to mean anything. *)
  Alcotest.(check bool) "several outages" true (!deaths >= 3);
  Alcotest.(check bool) "several restores" true (!restores >= 3);
  Alcotest.(check bool) "probes observed" true (!probes >= !deaths)

let test_bad_fault_schedules_rejected () =
  let g = Multigraph.create ~n_nodes:2 ~n_techs:1 ~edges:[ (0, 1, 0, 20.0) ] in
  let dom = Domain.single_domain_per_tech g in
  let flow = one_link_flow g ~rate:5.0 in
  let bad f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  let run ?link_events ?loss_events ?ctrl_events () =
    Engine.run ?link_events ?loss_events ?ctrl_events (Rng.create 1) g dom
      ~flows:[ flow ] ~duration:1.0
  in
  Alcotest.(check bool) "negative loss time" true
    (bad (fun () -> run ~loss_events:[ (-1.0, 0, 0.5) ] ()));
  Alcotest.(check bool) "loss link out of range" true
    (bad (fun () -> run ~loss_events:[ (0.5, 9, 0.5) ] ()));
  Alcotest.(check bool) "loss prob > 1" true
    (bad (fun () -> run ~loss_events:[ (0.5, 0, 1.5) ] ()));
  Alcotest.(check bool) "nan loss prob" true
    (bad (fun () -> run ~loss_events:[ (0.5, 0, Float.nan) ] ()));
  Alcotest.(check bool) "ctrl prob out of range" true
    (bad (fun () -> run ~ctrl_events:[ (0.5, 1.5, 0.0) ] ()));
  Alcotest.(check bool) "negative ctrl delay" true
    (bad (fun () -> run ~ctrl_events:[ (0.5, 0.0, -0.1) ] ()));
  (* A NaN capacity is neither a dead link (<= 0) nor a finite
     airtime; an infinite one has zero airtime. *)
  List.iter
    (fun c ->
      Alcotest.(check bool) (Printf.sprintf "link capacity %g" c) true
        (bad (fun () -> run ~link_events:[ (0.5, 0, c) ] ())))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  Alcotest.(check bool) "negative link capacity clamps to a dead link" false
    (bad (fun () -> run ~link_events:[ (0.5, 0, -1.0) ] ()));
  (* A NaN time passes every [t < 0.0] test: such an event or stop was
     silently never applied, and such a flow never started. *)
  List.iter
    (fun t ->
      let name kind = Printf.sprintf "%s event at time %g" kind t in
      Alcotest.(check bool) (name "link") true
        (bad (fun () -> run ~link_events:[ (t, 0, 0.0) ] ()));
      Alcotest.(check bool) (name "loss") true
        (bad (fun () -> run ~loss_events:[ (t, 0, 0.5) ] ()));
      Alcotest.(check bool) (name "ctrl") true
        (bad (fun () -> run ~ctrl_events:[ (t, 0.5, 0.0) ] ())))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  (* A NaN or negative horizon returned an empty result without error.
     An infinite one is rejected by the same test, but not run here: a
     run that accepted it would never return. *)
  let run_for duration = Engine.run (Rng.create 1) g dom ~flows:[ flow ] ~duration in
  List.iter
    (fun d ->
      Alcotest.(check bool) (Printf.sprintf "duration %g" d) true
        (bad (fun () -> run_for d)))
    [ Float.nan; -1.0; Float.neg_infinity ];
  Alcotest.(check bool) "duration 0 is an empty run" false (bad (fun () -> run_for 0.0));
  let run_flow spec =
    Engine.run (Rng.create 1) g dom ~flows:[ spec ] ~duration:1.0
  in
  List.iter
    (fun (name, spec) ->
      Alcotest.(check bool) name true (bad (fun () -> run_flow spec)))
    [
      ("nan start_time", { flow with Engine.start_time = Float.nan });
      ("negative start_time", { flow with Engine.start_time = -1.0 });
      ("infinite start_time", { flow with Engine.start_time = Float.infinity });
      ("nan stop_time", { flow with Engine.stop_time = Some Float.nan });
      ("negative stop_time", { flow with Engine.stop_time = Some (-1.0) });
      ("infinite stop_time", { flow with Engine.stop_time = Some Float.infinity });
      ( "stop_time before start_time",
        { flow with Engine.start_time = 0.5; stop_time = Some 0.25 } );
    ];
  Alcotest.(check bool) "stop_time at start_time accepted" false
    (bad (fun () ->
         run_flow { flow with Engine.start_time = 0.5; stop_time = Some 0.5 }))

(* ---------- runtime invariant checker ---------- *)

let assert_clean name inv =
  (match Invariants.violations inv with
  | [] -> ()
  | v :: _ as all ->
    Alcotest.failf "%s: %d violation(s), first: %s" name (List.length all)
      (Invariants.describe v));
  Alcotest.(check bool) (name ^ ": checker ran") true
    (Invariants.events_checked inv > 0);
  Alcotest.(check bool) (name ^ ": traffic flowed") true
    (Invariants.frames_delivered inv > 0)

let test_invariants_fig4_scenario () =
  (* The figure-4 setting: an EMPoWER multipath flow across a random
     residential hybrid, congestion control on. *)
  let inst = Residential.generate (Rng.create 77) in
  let g = Builder.graph inst Builder.Hybrid in
  let dom = Domain.of_instance inst Builder.Hybrid g in
  let flow = saturated_flow g dom ~src:0 ~dst:9 in
  let inv = Invariants.create ~mode:`Collect () in
  ignore
    (Engine.run ~invariants:inv (Rng.create 78) g dom ~flows:[ flow ]
       ~duration:10.0);
  assert_clean "fig4" inv

let test_invariants_fig7_scenario () =
  (* The figure-7 setting: several contending EMPoWER flows sharing
     the residential network's collision domains. *)
  let rng = Rng.create 907 in
  let inst = Common.generate Common.Residential rng in
  let g = Builder.graph inst Builder.Hybrid in
  let dom = Domain.of_instance inst Builder.Hybrid g in
  let flows =
    Common.random_flows rng inst ~n:3
    |> List.filter_map (fun (src, dst) ->
           let f = saturated_flow g dom ~src ~dst in
           if f.Engine.routes = [] then None else Some f)
  in
  Alcotest.(check bool) "contending flows found" true (List.length flows >= 2);
  let inv = Invariants.create ~mode:`Collect () in
  ignore (Engine.run ~invariants:inv (Rng.create 908) g dom ~flows ~duration:10.0);
  assert_clean "fig7" inv

let test_invariants_table1_scenario () =
  (* The table-1 setting: a TCP file download on the testbed graph
     with delay equalization, driven through the library facade. *)
  let inst = Testbed.generate (Rng.create 4242) in
  let net = Runner.network inst Schemes.Empower in
  let src = Testbed.node 6 and dst = Testbed.node 13 in
  let rr = Runner.routes_and_rates net Schemes.Empower ~src ~dst in
  Alcotest.(check bool) "testbed route exists" true (fst rr <> []);
  let spec =
    Runner.flow_spec ~transport:Engine.Tcp_transport
      ~workload:(Workload.File { bytes = 20_000_000 })
      ~src ~dst rr
  in
  let config = { Engine.default_config with delay_equalize = true } in
  let inv = Invariants.create ~mode:`Collect () in
  ignore
    (Empower.simulate ~config ~invariants:inv ~seed:4243 net ~flows:[ spec ]
       ~duration:30.0);
  assert_clean "table1" inv

(* Negative tests: drive the checker's hooks directly with deliberate
   bookkeeping bugs and verify each one is caught with the right rule.
   The [view] closures play the role of the live MAC state. *)

let quiet_view =
  {
    Invariants.n_links = 2;
    queue_len = (fun _ -> 0);
    on_air_flow = (fun _ -> None);
    iter_queued = (fun _ _ -> ());
    domain = (fun _ -> [| 0; 1 |]);
    gamma = (fun _ -> 0.0);
    link_src = (fun _ -> 0);
    live_frames = (fun () -> 0);
    held_frames = (fun () -> 0);
  }

let fresh_checker () =
  let inv = Invariants.create () in
  Invariants.configure inv ~queue_limit:64 ~frame_bytes:1500 ~control_period:0.03;
  Invariants.register_flow inv ~flow:0 ~pacing:Invariants.Unpoliced ~rate:10.0;
  inv

let expect_violation name rule f =
  match f () with
  | () -> Alcotest.failf "%s: the injected bug was not caught" name
  | exception Invariants.Violation v ->
    Alcotest.(check string) (name ^ ": rule") rule v.Invariants.rule

let test_catches_lost_frame () =
  expect_violation "lost frame" "frame-conservation" (fun () ->
      let inv = fresh_checker () in
      for _ = 1 to 5 do
        Invariants.on_inject inv ~now:0.01 ~flow:0
      done;
      for _ = 1 to 3 do
        Invariants.on_deliver inv ~now:0.02 ~flow:0
      done;
      (* Two frames vanished with no drop record and no queue holding
         them: exactly the bug a skipped [queue_drops] update makes. *)
      Invariants.check_step inv ~now:0.03 quiet_view)

let test_catches_duplicate_release () =
  expect_violation "duplicate release" "reorder-duplicate" (fun () ->
      let inv = fresh_checker () in
      Invariants.on_release inv ~now:0.01 ~flow:0 (`Deliver 0);
      Invariants.on_release inv ~now:0.02 ~flow:0 (`Deliver 0))

let test_catches_reordered_release () =
  expect_violation "reordered release" "reorder-gap" (fun () ->
      let inv = fresh_checker () in
      Invariants.on_release inv ~now:0.01 ~flow:0 (`Deliver 1))

let test_catches_negative_price () =
  expect_violation "negative price" "negative-price" (fun () ->
      let inv = fresh_checker () in
      Invariants.check_step inv ~now:0.01
        { quiet_view with Invariants.gamma = (fun _ -> -0.25) })

let test_catches_queue_over_bound () =
  expect_violation "queue over bound" "queue-bound" (fun () ->
      let inv = fresh_checker () in
      Invariants.check_step inv ~now:0.01
        { quiet_view with Invariants.queue_len = (fun _ -> 65) })

let test_catches_double_occupancy () =
  expect_violation "double occupancy" "medium-occupancy" (fun () ->
      let inv = fresh_checker () in
      Invariants.on_inject inv ~now:0.005 ~flow:0;
      Invariants.on_inject inv ~now:0.005 ~flow:0;
      (* Both links of one interference domain on the air at once. *)
      Invariants.check_step inv ~now:0.01
        { quiet_view with Invariants.on_air_flow = (fun _ -> Some 0) })

let test_catches_never_freed () =
  (* One frame queued and one held back by the delay equalizer: a
     pool with two records out is consistent with that ... *)
  let view live =
    {
      quiet_view with
      Invariants.queue_len = (fun l -> if l = 0 then 1 else 0);
      live_frames = (fun () -> live);
      held_frames = (fun () -> 1);
    }
  in
  let inv = fresh_checker () in
  Invariants.on_inject inv ~now:0.005 ~flow:0;
  Invariants.on_inject inv ~now:0.005 ~flow:0;
  Invariants.on_deliver inv ~now:0.008 ~flow:0;
  Invariants.check_step inv ~now:0.01 (view 2);
  (* ... and one more record out is a frame that was never freed. *)
  expect_violation "frame never freed" "frame-pool" (fun () ->
      Invariants.check_step inv ~now:0.02 (view 3))

let test_catches_double_free () =
  expect_violation "frame freed twice" "frame-pool" (fun () ->
      let inv = fresh_checker () in
      Invariants.on_inject inv ~now:0.005 ~flow:0;
      (* The queued frame's record is back on the free stack too. *)
      Invariants.check_step inv ~now:0.01
        {
          quiet_view with
          Invariants.queue_len = (fun l -> if l = 0 then 1 else 0);
          live_frames = (fun () -> 0);
        })

(* ---------- allocation guards ---------- *)

let testbed =
  lazy (Runner.network (Testbed.generate (Rng.create 4242)) Schemes.Empower)

(* Steady-state minor words per event of a saturated testbed flow
   0 -> 12 (draw 4242, engine seed 5): what a 4 s run allocates beyond
   a 2 s run, over the events it processes beyond it, so the set-up
   and the warm-up cancel out. Measured on a bare run, as [dune
   runtest] runs it: no sink, no flight ring, no invariant checker.
   The count is exact, so the bound can sit close: one word per event
   (0.71 for UDP and 0.26 for DCTCP when written). One boxed float
   per frame is enough to cross it: a send time kept in the frame
   record reads 1.60 (UDP), and the time passed boxed to each TCP
   call 2.25 (DCTCP). *)
let words_per_extra_event ~config flow =
  let net = Lazy.force testbed in
  let run duration =
    let w0 = Gc.minor_words () in
    let r =
      Engine.run ~config (Rng.create 5) net.Empower.g net.Empower.dom
        ~flows:[ flow ] ~duration
    in
    (Gc.minor_words () -. w0, r.Engine.events_processed)
  in
  let w2, e2 = run 2.0 in
  let w4, e4 = run 4.0 in
  Alcotest.(check bool) "the longer run processes more events" true (e4 > e2);
  (w4 -. w2) /. float_of_int (e4 - e2)

let check_words_per_event name wpe =
  Printf.printf "%s: %.2f minor words per extra event\n" name wpe;
  if wpe > 1.0 then
    Alcotest.failf "%s: %.2f minor words per extra event, at most 1 allowed" name wpe

let test_udp_words_per_event () =
  let net = Lazy.force testbed in
  let flow =
    Runner.flow_spec ~src:0 ~dst:12
      (Runner.routes_and_rates net Schemes.Empower ~src:0 ~dst:12)
  in
  let config = { Engine.default_config with delta = 0.05 } in
  check_words_per_event "UDP, CC on" (words_per_extra_event ~config flow)

let test_dctcp_words_per_event () =
  (* DCTCP on the pair's primary route over a dynamic-threshold shared
     pool of 64 frames with ECN marking from 8 frames, CC off. *)
  let net = Lazy.force testbed in
  let flow =
    match Runner.routes_and_rates net Schemes.Empower ~src:0 ~dst:12 with
    | r :: _, v :: _ ->
      Runner.flow_spec ~transport:Engine.Tcp_transport ~tcp_params:Tcp.dctcp_params
        ~src:0 ~dst:12 ([ r ], [ v ])
    | _ -> Alcotest.fail "no route 0 -> 12"
  in
  let fb = Engine.default_config.Engine.frame_bytes in
  let config =
    {
      Engine.default_config with
      enable_cc = false;
      buffers =
        Some
          {
            Engine.policy = Engine.Dynamic_threshold 1.0;
            pool_bytes = 64 * fb;
            ecn_threshold_bytes = Some (8 * fb);
          };
    }
  in
  check_words_per_event "DCTCP over DT+ECN" (words_per_extra_event ~config flow)

let () =
  Alcotest.run "sim"
    [
      ( "mac",
        [
          Alcotest.test_case "single link" `Quick test_single_link_throughput;
          Alcotest.test_case "lemma 1 sharing" `Quick test_lemma1_mac_sharing;
          Alcotest.test_case "queue drops under overload" `Quick
            test_queue_drops_under_overload;
          Alcotest.test_case "collisions under contention" `Quick
            test_collisions_under_contention;
          Alcotest.test_case "forwarding plan off the route" `Quick
            test_plan_off_route_mac;
        ] );
      ( "datapath",
        [
          Alcotest.test_case "figure-1 CC run" `Quick test_fig1_cc_run;
          Alcotest.test_case "multihop forwarding" `Quick test_multihop_forwarding;
          Alcotest.test_case "flow start/stop" `Quick test_flow_start_stop;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "validation" `Quick test_validation_errors;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "file completion" `Quick test_file_completion;
          Alcotest.test_case "poisson files" `Quick test_poisson_files_sequential;
          Alcotest.test_case "poisson files serialized" `Quick
            test_poisson_files_serialized;
          Alcotest.test_case "empirical open loop" `Quick test_empirical_open_loop;
          Alcotest.test_case "empirical poisson pacing" `Quick
            test_empirical_poisson_pacing;
          Alcotest.test_case "empirical validation" `Quick
            test_empirical_validation;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "transfer completes" `Quick test_tcp_transfer_over_engine;
          Alcotest.test_case "outage queues each timer once" `Quick
            test_tcp_outage_timer_queue;
        ] );
      ( "dynamics",
        [
          Alcotest.test_case "link failure reroutes" `Quick
            test_link_failure_reroutes_traffic;
          Alcotest.test_case "capacity drop adapts" `Quick test_capacity_drop_adapts;
          Alcotest.test_case "margin cuts delay" `Quick test_delay_grows_without_margin;
        ] );
      ( "faults",
        [
          Alcotest.test_case "same-time tie-break" `Quick test_fault_tie_break;
          Alcotest.test_case "full loss window" `Quick test_full_loss_window;
          Alcotest.test_case "control faults survivable" `Quick
            test_ctrl_faults_survivable;
          Alcotest.test_case "flapping probe chains" `Quick
            test_flapping_probe_chains;
          Alcotest.test_case "bad schedules rejected" `Quick
            test_bad_fault_schedules_rejected;
        ] );
      ( "buffers",
        [
          Alcotest.test_case "fault drops not queue drops" `Quick
            test_fault_drops_not_queue_drops;
          Alcotest.test_case "overflow drops match trace" `Quick
            test_overflow_drops_match_trace;
          Alcotest.test_case "shared pool admission" `Quick
            test_buffer_pool_admission;
          Alcotest.test_case "static stricter than DT" `Quick
            test_static_stricter_than_dt;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "fig4 scenario clean" `Quick
            test_invariants_fig4_scenario;
          Alcotest.test_case "fig7 scenario clean" `Quick
            test_invariants_fig7_scenario;
          Alcotest.test_case "table1 scenario clean" `Quick
            test_invariants_table1_scenario;
          Alcotest.test_case "catches lost frame" `Quick test_catches_lost_frame;
          Alcotest.test_case "catches duplicate release" `Quick
            test_catches_duplicate_release;
          Alcotest.test_case "catches reordered release" `Quick
            test_catches_reordered_release;
          Alcotest.test_case "catches negative price" `Quick
            test_catches_negative_price;
          Alcotest.test_case "catches queue over bound" `Quick
            test_catches_queue_over_bound;
          Alcotest.test_case "catches double occupancy" `Quick
            test_catches_double_occupancy;
          Alcotest.test_case "catches frame never freed" `Quick
            test_catches_never_freed;
          Alcotest.test_case "catches frame freed twice" `Quick
            test_catches_double_free;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "UDP words per event" `Quick test_udp_words_per_event;
          Alcotest.test_case "DCTCP words per event" `Quick test_dctcp_words_per_event;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_engine_goodput_below_optimal ] );
    ]
