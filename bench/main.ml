(* The benchmark harness: `dune exec bench/main.exe [SECTION...]`.

   Sections (default: all three, in this order):

   - kernels      Bechamel micro-benchmarks of the kernels every
                  experiment leans on (one Test.make per kernel): the
                  multipath exploration tree, CSC Dijkstra, Yen, the
                  congestion controller, testbed-scale set-up (Yen,
                  update() on the primary route, the exploration tree,
                  a 3-flow Empower.allocate on the 22-node testbed
                  and equation (9) alone on that allocation's final
                  prices), the LP-based optimal baseline,
                  the fluid MAC, the packet engine (bare, with a
                  flight ring armed, and with one DCTCP flow over DT
                  buffers with ECN), the reorder buffer on its own,
                  one churn scenario end to end
                  (Scenario.run flapping-churn, ring armed), route
                  re-discovery on a route death (Recovery.survivors,
                  testbed with node 6 down), the testbed's
                  interference structure and the 20-byte header
                  codec. Each prints its time and its minor words per
                  run.
   - sim          wall-clock engine throughput on a pinned scenario,
                  written to BENCH_sim.json: events/s and allocation
                  per event, trace overhead, chaos/severance runs, and
                  the parallel-executor mini suite (per-figure wall
                  seconds at --jobs 1 vs 4 plus the speedup, with a
                  bit-identity check on the results).
   - experiments  regeneration of every table and figure of the
                  paper's evaluation at bench scale (the same printers
                  the CLI uses, smaller run counts; replications fan
                  out over EMPOWER_JOBS worker domains if set). Set
                  EMPOWER_BENCH_RUNS to scale this section up; the
                  paper itself uses 1000 simulation runs per figure. *)

open Bechamel
open Toolkit

(* ---------- part 1: kernels ---------- *)

let residential_case =
  lazy
    (let inst = Residential.generate (Rng.create 77) in
     let g = Builder.graph inst Builder.Hybrid in
     let dom = Domain.of_instance inst Builder.Hybrid g in
     (g, dom))

let testbed_instance =
  lazy
    (let inst = Testbed.generate (Rng.create 4242) in
     (inst, Builder.graph inst Builder.Hybrid))

let testbed_case =
  lazy
    (let inst, g = Lazy.force testbed_instance in
     (g, Domain.of_instance inst Builder.Hybrid g))

let bench_multipath () =
  let g, dom = Lazy.force residential_case in
  ignore (Multipath.find g dom ~src:0 ~dst:9)

let bench_dijkstra () =
  let g, _ = Lazy.force residential_case in
  ignore (Dijkstra.shortest_path g ~src:0 ~dst:9)

let bench_yen () =
  let g, _ = Lazy.force residential_case in
  ignore (Yen.k_shortest g ~src:0 ~dst:9 ~k:5)

(* Testbed-scale set-up: the 616-link testbed shows the routing and
   controller costs that the ~100-link residential draws hide. *)
let bench_multipath_testbed () =
  let g, dom = Lazy.force testbed_case in
  ignore (Multipath.find g dom ~src:0 ~dst:12)

let bench_yen_testbed () =
  let g, _ = Lazy.force testbed_case in
  ignore (Yen.k_shortest g ~src:0 ~dst:12 ~k:5)

(* update() on the 0->12 primary route: the view the exploration tree
   derives along its first edge. *)
let testbed_primary =
  lazy
    (let g, _ = Lazy.force testbed_case in
     match Dijkstra.shortest_path g ~src:0 ~dst:12 with
     | Some (p, _) -> p
     | None -> failwith "testbed 0->12 unreachable")

let bench_update_testbed () =
  let g, dom = Lazy.force testbed_case in
  ignore (Update.update g dom (Lazy.force testbed_primary))

let testbed_flows = [ (0, 12); (3, 17); (8, 21) ]

let bench_allocate_testbed () =
  let g, dom = Lazy.force testbed_case in
  ignore (Empower.allocate ~delta:0.05 { Empower.g; dom } ~flows:testbed_flows)

(* Equation (9) on its own, under the γ the same allocation's controller
   holds after its 3000 slots: a fresh [Price] replays them, slot t
   stepping with the rates the controller held after slot t - 1. *)
let price_testbed =
  lazy
    (let g, dom = Lazy.force testbed_case in
     let net = { Empower.g; dom } in
     let plans = List.map (fun (src, dst) -> Empower.plan net ~src ~dst) testbed_flows in
     let problem =
       Problem.make ~delta:0.05 g dom
         ~flows:(List.map (fun p -> Multipath.routes p.Empower.combination) plans)
     in
     let x_init =
       Array.of_list
         (List.concat_map (fun p -> List.map snd p.Empower.combination.Multipath.paths) plans)
     in
     let price = Price.create problem and held = Array.copy x_init in
     ignore
       (Multi_cc.solve_tracked ~x_init ~slots:3000
          ~on_slot:(fun _ x ->
            Price.step price ~x:held ~alpha:0.02;
            Array.blit x 0 held 0 (Array.length x))
          problem);
     price)

let bench_route_costs_testbed () = ignore (Price.route_costs (Lazy.force price_testbed))

let bench_cc () =
  let g, dom = Lazy.force residential_case in
  let routes = Multipath.routes (Multipath.find g dom ~src:0 ~dst:9) in
  let p = Problem.make g dom ~flows:[ routes ] in
  let x_init = Array.of_list (List.map (Update.path_rate g dom) routes) in
  ignore (Multi_cc.solve ~x_init ~slots:500 p)

let bench_lp () =
  let g, dom = Lazy.force residential_case in
  ignore (Opt_solver.max_throughput Rate_region.Exact g dom ~src:0 ~dst:9)

let bench_fluid () =
  let g, dom = Lazy.force residential_case in
  let routes = Multipath.routes (Multipath.find g dom ~src:0 ~dst:9) in
  let offered = List.map (fun p -> (p, Update.path_rate g dom p)) routes in
  ignore (Fluid.goodput g dom ~offered)

let bench_engine_with ?flight () =
  let g, dom = Lazy.force testbed_case in
  let comb = Multipath.find g dom ~src:0 ~dst:12 in
  match Multipath.routes comb with
  | [] -> ()
  | routes ->
    let spec =
      {
        Engine.src = 0;
        dst = 12;
        routes;
        init_rates = List.map snd comb.Multipath.paths;
        workload = Workload.Saturated;
        transport = Engine.Udp;
        tcp_params = None;
        start_time = 0.0;
        stop_time = None;
      }
    in
    ignore (Engine.run ?flight (Rng.create 1) g dom ~flows:[ spec ] ~duration:2.0)

let bench_engine () = bench_engine_with ()

(* The same run with a flight ring armed: every 100 ms tick writes one
   price row per priced link (616 on the testbed), each carrying
   d_l Σ_{i∈I_l} γ_i. One ring serves every run. *)
let flight_ring = lazy (Obs.Flight.create ())

let bench_engine_flight () = bench_engine_with ~flight:(Lazy.force flight_ring) ()

(* The transport on its own: one DCTCP flow on the testbed 0->12
   primary route over DT shared buffers with ECN marking, congestion
   control off, 3 s — shaped like a unit of perfbench's testbed-tcp
   workload. *)
let tcp_engine_config =
  let frame = Engine.default_config.Engine.frame_bytes in
  {
    Engine.default_config with
    enable_cc = false;
    delay_equalize = false;
    buffers =
      Some
        {
          Engine.policy = Engine.Dynamic_threshold 1.0;
          pool_bytes = 64 * frame;
          ecn_threshold_bytes = Some (8 * frame);
        };
  }

let tcp_flow =
  lazy
    (let g, dom = Lazy.force testbed_case in
     match Multipath.find g dom ~src:0 ~dst:12 with
     | { Multipath.paths = (route, rate) :: _; _ } ->
       Runner.flow_spec ~transport:Engine.Tcp_transport ~tcp_params:Tcp.dctcp_params
         ~src:0 ~dst:12 ([ route ], [ rate ])
     | _ -> failwith "testbed 0->12 unreachable")

let bench_engine_tcp () =
  let g, dom = Lazy.force testbed_case in
  ignore
    (Engine.run ~config:tcp_engine_config (Rng.create 1) g dom
       ~flows:[ Lazy.force tcp_flow ] ~duration:3.0)

(* The receiver on its own: 3,000 frames of one flow, dealt round-robin
   over 3 routes whose delays differ by 7 and 19 frame times, arrive
   out of order at a fresh reorder buffer. *)
let reorder_arrivals =
  lazy
    (let delay = [| 0; 7; 19 |] in
     let arrivals = Array.init 3000 (fun seq -> (seq + delay.(seq mod 3), seq)) in
     Array.sort compare arrivals;
     Array.map snd arrivals)

let bench_reorder () =
  let arrivals = Lazy.force reorder_arrivals in
  let r = Reorder.create ~n_routes:3 () in
  let released = ref 0 in
  let deliver _ _ = incr released and lost _ = incr released in
  Array.iter
    (fun seq -> Reorder.push_cb r ~route:(seq mod 3) ~seq seq ~deliver ~lost)
    arrivals;
  ignore (Sys.opaque_identity !released)

(* One churn scenario end to end, as perfbench's churn-catalog runs
   each spec: the fault-free twin run, then the churn run with a flight
   ring armed. Run from the repository root (reads scenarios/). *)
let flapping_churn =
  lazy
    (match Scenario.load (Filename.concat "scenarios" "flapping-churn.json") with
    | Ok spec -> spec
    | Error e -> failwith e)

let bench_scenario_flight () =
  ignore (Scenario.run ~flight:(Lazy.force flight_ring) (Lazy.force flapping_churn))

(* Route re-discovery as the engine asks it on a route death: which
   of the testbed's 0->12 routes survive, seen from node 0, with node
   6 down. *)
let survivors_case =
  lazy
    (let g, dom = Lazy.force testbed_case in
     let caps = Multigraph.capacities g in
     List.iter (fun l -> caps.(l) <- 0.0) (Multigraph.out_links g 6);
     List.iter (fun l -> caps.(l) <- 0.0) (Multigraph.in_links g 6);
     (g, caps, Multipath.routes (Multipath.find g dom ~src:0 ~dst:12)))

let bench_survivors () =
  let g, caps, routes = Lazy.force survivors_case in
  ignore (Recovery.survivors g ~caps ~src:0 ~routes)

(* Building the testbed's interference structure: the pairwise bits,
   the twin classes and one domain array per class. *)
let bench_domain_testbed () =
  let inst, g = Lazy.force testbed_instance in
  ignore (Domain.of_instance inst Builder.Hybrid g)

let bench_header () =
  let h = Header.make ~seq:123456 ~qr:0.125 ~route:[| 0x1a2b; 0x3c4d; 0x5e6f |] in
  ignore (Header.decode (Header.encode h))

let kernel_tests =
  [
    Test.make ~name:"multipath exploration tree" (Staged.stage bench_multipath);
    Test.make ~name:"CSC dijkstra" (Staged.stage bench_dijkstra);
    Test.make ~name:"yen 5-shortest" (Staged.stage bench_yen);
    Test.make ~name:"multipath CC (500 slots)" (Staged.stage bench_cc);
    Test.make ~name:"multipath exploration tree (testbed 0->12)"
      (Staged.stage bench_multipath_testbed);
    Test.make ~name:"yen 5-shortest (testbed 0->12)" (Staged.stage bench_yen_testbed);
    Test.make ~name:"update() (testbed 0->12, primary route)"
      (Staged.stage bench_update_testbed);
    Test.make ~name:"allocate 3 flows (testbed, delta 0.05)"
      (Staged.stage bench_allocate_testbed);
    Test.make ~name:"Price.route_costs (testbed, 3 flows)"
      (Staged.stage bench_route_costs_testbed);
    Test.make ~name:"LP optimal baseline" (Staged.stage bench_lp);
    Test.make ~name:"fluid MAC goodput" (Staged.stage bench_fluid);
    Test.make ~name:"packet engine (2 s sim)" (Staged.stage bench_engine);
    Test.make ~name:"packet engine, flight ring armed (testbed 0->12, 2 s)"
      (Staged.stage bench_engine_flight);
    Test.make ~name:"packet engine, one TCP flow (testbed, DT pool, ECN, 3 s)"
      (Staged.stage bench_engine_tcp);
    Test.make ~name:"Reorder.push_cb, 3 routes out of order" (Staged.stage bench_reorder);
    Test.make ~name:"Scenario.run flapping-churn, flight ring armed"
      (Staged.stage bench_scenario_flight);
    Test.make ~name:"Recovery.survivors (testbed, node 6 down)"
      (Staged.stage bench_survivors);
    Test.make ~name:"Domain.of_instance (testbed)" (Staged.stage bench_domain_testbed);
    Test.make ~name:"header encode+decode" (Staged.stage bench_header);
  ]

(* Minor words allocated, read with [Gc.minor_words]. The toolkit's
   [Instance.minor_allocated] reads [Gc.quick_stat], whose count on
   OCaml 5 moves only when a minor collection runs, so a kernel that
   allocates less than a minor heap per sample reads as 0 words. *)
module Minor_words = struct
  type witness = unit

  let load () = ()
  let unload () = ()
  let make () = ()
  let get () = Gc.minor_words ()
  let label () = "minor-words"
  let unit () = "w"
end

let minor_words =
  Measure.instance (module Minor_words) (Measure.register (module Minor_words))

let run_kernels () =
  print_endline "=== Bechamel kernel benchmarks ===";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = [ Instance.monotonic_clock; minor_words ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let grouped = Test.make_grouped ~name:"empower" ~fmt:"%s %s" kernel_tests in
  let raw = Benchmark.all cfg instances grouped in
  (* Per kernel: the OLS estimate of one measure per run. *)
  let per_run instance =
    let est = Hashtbl.create 32 in
    Hashtbl.iter
      (fun name ols_result ->
        Hashtbl.replace est name
          (match Analyze.OLS.estimates ols_result with
          | Some (v :: _) -> v
          | Some [] | None -> Float.nan))
      (Analyze.all ols instance raw);
    est
  in
  let time_ns = per_run Instance.monotonic_clock in
  let words = per_run minor_words in
  let names = List.sort compare (Hashtbl.fold (fun name _ acc -> name :: acc) time_ns []) in
  List.iter
    (fun name ->
      let ns = Hashtbl.find time_ns name in
      let time =
        if Float.is_nan ns then "(no estimate)"
        else if ns > 1e9 then Printf.sprintf "%8.2f s/run" (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%8.2f ms/run" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%8.2f us/run" (ns /. 1e3)
        else Printf.sprintf "%8.0f ns/run" ns
      in
      let w = Option.value (Hashtbl.find_opt words name) ~default:Float.nan in
      let words = if Float.is_nan w then "" else Printf.sprintf "  %12.0f words/run" w in
      Printf.printf "%-45s %s%s\n" name time words)
    names

(* ---------- part 1b: engine throughput on a fixed scenario ---------- *)

(* The pinned throughput scenario (figure-4 residential, seed 77, flow
   0->9, 4 s of simulated time): shared between the sim section and
   the [--check] perf gate so both time exactly the same workload. *)
let sim_duration = 4.0

let sim_runner () =
  let g, dom = Lazy.force residential_case in
  let comb = Multipath.find g dom ~src:0 ~dst:9 in
  match Multipath.routes comb with
  | [] -> None
  | routes ->
    let spec =
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
    Some
      (fun ?trace ?flight ?prof seed ->
        Engine.run ?trace ?flight ?prof (Rng.create seed) g dom
          ~flows:[ spec ] ~duration:sim_duration)

(* Timing methodology shared by the sim section and the perf gate:
   every configuration gets a warmup run (pays code paging and sink
   setup once), then [rounds] timed blocks of [reps] runs each, and is
   summarized by the MEDIAN block time. The previous min-of-3-rounds
   scheme let the overhead percentages go negative whenever the
   baseline block drew the single luckiest slice of a loaded 1-core
   container; the median of five is robust to those outliers in both
   directions. CPU time ([Sys.time]), not wall: co-tenant load must
   not count against the engine. *)
let bench_reps = 5
let bench_rounds = 5

let median a =
  let s = Array.copy a in
  Array.sort compare s;
  s.(Array.length s / 2)

(* Median block time (seconds) for one configuration: warmup, then
   [bench_rounds] timed blocks of [bench_reps] runs. [run] takes the
   rep index (used as the engine seed). *)
let timed_config run =
  ignore (run 0);
  let t = Array.make bench_rounds infinity in
  for round = 0 to bench_rounds - 1 do
    let t0 = Sys.time () in
    for i = 1 to bench_reps do
      ignore (run i)
    done;
    t.(round) <- Float.max 1e-9 (Sys.time () -. t0)
  done;
  median t

let write_sim_bench () =
  (* Wall-clock engine throughput on the pinned scenario lands in
     BENCH_sim.json so numbers are comparable across commits. *)
  let g, dom = Lazy.force residential_case in
  let comb = Multipath.find g dom ~src:0 ~dst:9 in
  match Multipath.routes comb with
  | [] -> print_endline "BENCH_sim.json: skipped (no route 0 -> 9)"
  | routes ->
    let spec =
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
    let duration = sim_duration in
    let one ?trace ?flight ?prof seed =
      Engine.run ?trace ?flight ?prof (Rng.create seed) g dom ~flows:[ spec ]
        ~duration
    in
    let buffers_config =
      let fb = Engine.default_config.Engine.frame_bytes in
      {
        Engine.default_config with
        buffers =
          Some
            {
              Engine.policy = Engine.Dynamic_threshold 1.0;
              pool_bytes = 32 * fb;
              ecn_threshold_bytes = Some (8 * fb);
            };
      }
    in
    let one_buffered seed =
      Engine.run ~config:buffers_config (Rng.create seed) g dom
        ~flows:[ spec ] ~duration
    in
    let reps = bench_reps in
    let events = ref 0 and bytes = ref 0 and peak_q = ref 0 in
    let trace_events = ref 0 in
    let ring = Obs.Flight.create () in
    let buffered_events = ref 0 in
    (* Counters and the allocation probe come from one dedicated pass:
       runs are deterministic, so the counter values are the same in
       every timed block, and drawing [Gc.minor_words] outside the
       timed blocks keeps the probe itself out of the timings. *)
    let minor0 = Gc.minor_words () in
    for i = 1 to reps do
      let res = one i in
      events := !events + res.Engine.events_processed;
      bytes := !bytes + res.Engine.flows.(0).Engine.received_bytes;
      peak_q := max !peak_q res.Engine.perf.Engine.peak_queue_depth
    done;
    let minor_words = Gc.minor_words () -. minor0 in
    (* Untraced baseline (the headline events/s). *)
    let elapsed = timed_config (fun i -> ignore (one i)) in
    (* Same reps with a counting trace sink attached: the delta is the
       cost of the instrumentation hooks plus event records. *)
    let elapsed_traced =
      timed_config (fun i ->
          let sink, _ = Obs.Trace.counter () in
          ignore (one ~trace:sink i))
    in
    (* Event counts come from one separate pass per sink
       configuration, outside the timed blocks. *)
    for i = 1 to reps do
      let sink, count = Obs.Trace.counter () in
      ignore (one ~trace:sink i);
      trace_events := !trace_events + count ()
    done;
    (* The always-on flight recorder's cost: scalar ring stores on
       every event. *)
    let elapsed_flight = timed_config (fun i -> ignore (one ~flight:ring i)) in
    (* Finite shared buffers (DT alpha=1, 32-frame pool, ECN at 8):
       per-frame admission arithmetic on the enqueue path is the
       regression to watch. *)
    let elapsed_buffered = timed_config (fun i -> ignore (one_buffered i)) in
    for i = 1 to reps do
      let res = one_buffered i in
      buffered_events := !buffered_events + res.Engine.events_processed
    done;
    (* Per-subsystem attribution of the same scenario, merged across
       the reps (feeds the sub-300 ns/event roadmap item). *)
    let prof = Obs.Prof.create () in
    for i = 1 to reps do
      ignore (one ~prof i)
    done;
    let frames = !bytes / Engine.default_config.Engine.frame_bytes in
    let runs_s = float_of_int reps /. elapsed in
    let events_s = float_of_int !events /. elapsed in
    let events_s_traced = float_of_int !events /. elapsed_traced in
    let buffered_events_s = float_of_int !buffered_events /. elapsed_buffered in
    let frames_s = float_of_int frames /. elapsed in
    (* Overheads are non-negative by construction (the instrumented
       run does strictly more work); a negative measurement is timing
       noise, so clamp at zero rather than publish an impossibility. *)
    let overhead_of inst = Float.max 0.0 ((inst /. elapsed -. 1.0) *. 100.0) in
    let overhead_pct = overhead_of elapsed_traced in
    let flight_overhead_pct = overhead_of elapsed_flight in
    let prof_events_n = Obs.Prof.events prof in
    let prof_ns =
      Obs.Prof.total_wall prof *. 1e9 /. float_of_int (max 1 prof_events_n)
    in
    let prof_entries = Obs.Prof.report prof in
    let prof_words =
      List.fold_left (fun a e -> a +. e.Obs.Prof.minor_words) 0.0 prof_entries
      /. float_of_int (max 1 prof_events_n)
    in
    let prof_shares =
      String.concat ", "
        (List.map
           (fun e -> Printf.sprintf "\"%s\": %.1f" e.Obs.Prof.name e.Obs.Prof.share_pct)
           prof_entries)
    in
    (* Stdlib's, not the interference-domain module that shadows it. *)
    let cores = Stdlib.Domain.recommended_domain_count () in
    (* Chaos runs stress the fault schedules on top of the engine: the
       testbed scenario with a generated moderate plan per seed,
       dispatched through Scenario.run_all (sequential unless
       EMPOWER_JOBS is set — CPU time keeps the timing honest either
       way). Each scorecard runs the unobserved fault-free twin too,
       and the timing includes it; the events counted are the churn
       run's. *)
    let chaos_specs ?intensity ?recovery () =
      List.init reps (fun i -> Chaos.spec ?intensity ?recovery ~duration:4.0 ~seed:(i + 1) ())
    in
    let chaos_events = ref 0 and chaos_faults = ref 0 in
    let t2 = Sys.time () in
    List.iter
      (fun (sc : Scenario.scorecard) ->
        chaos_events := !chaos_events + sc.Scenario.events_processed;
        chaos_faults := !chaos_faults + sc.Scenario.fault_events)
      (Scenario.run_all (chaos_specs ()));
    let elapsed_chaos = Float.max 1e-9 (Sys.time () -. t2) in
    let chaos_events_s = float_of_int !chaos_events /. elapsed_chaos in
    (* The self-healing headline numbers: a pinned full-severance run
       (every route of the flow down at once) with recovery on. The
       detection latency and the bounded recovery time land in the
       JSON so regressions in the recovery path show up per-commit. *)
    let sever =
      Scenario.run
        (Chaos.spec ~intensity:Fault.Gen.Severing ~recovery:true ~seed:13 ~duration:12.0 ())
    in
    let sever_flow = List.hd sever.Scenario.flows in
    let t3 = Sys.time () in
    let sever_events = ref 0 in
    List.iter
      (fun (sc : Scenario.scorecard) ->
        sever_events := !sever_events + sc.Scenario.events_processed)
      (Scenario.run_all (chaos_specs ~intensity:Fault.Gen.Severing ~recovery:true ()));
    let elapsed_sever = Float.max 1e-9 (Sys.time () -. t3) in
    let sever_events_s = float_of_int !sever_events /. elapsed_sever in
    (* Steady-churn probe: the shipped flapping-churn scenario,
       inlined so the bench needs no file-system path. Scenario.run
       executes the fault-free baseline twin plus the churn run, so
       the events/s figure prices the full scorecard pipeline; the
       availability and SLO verdict land in the JSON so a regression
       in the degradation accounting shows up per-commit. *)
    let churn_spec =
      {
        Scenario.name = "flapping-churn";
        description = "bench probe: seeded relay flapping + ack drops";
        seed = 11;
        duration = 30.0;
        topology = Scenario.Testbed;
        topology_seed = 4242;
        devices =
          [
            { Device.node = 6; cls = Device.Relay; panel = None };
            { Device.node = 14; cls = Device.Relay; panel = None };
          ];
        flows = [ (0, 12); (18, 5) ];
        churn =
          Scenario.Plan
            [
              Fault.Node_flap
                { at = 3.0; until = 24.0; node = 6; period = 2.5; duty = 0.4 };
              Fault.Node_flap
                { at = 5.0; until = 22.0; node = 14; period = 3.0; duty = 0.35 };
              Fault.Ctrl_drop { at = 10.0; until = 14.0; prob = 0.3 };
            ];
        recovery = true;
        slo = { Scenario.availability_frac = 0.6; min_availability = 0.7 };
      }
    in
    let churn_card = Scenario.run churn_spec in
    let churn_events = ref 0 in
    let t3c = Sys.time () in
    let churn_reps = 3 in
    for _i = 1 to churn_reps do
      churn_events :=
        !churn_events + (Scenario.run churn_spec).Scenario.events_processed
    done;
    let elapsed_churn = Float.max 1e-9 (Sys.time () -. t3c) in
    let churn_events_s = float_of_int !churn_events /. elapsed_churn in
    (* Parallel-executor mini suite: three figures timed wall-clock at
       --jobs 1 and --jobs 4 (speedup needs wall time, not CPU time —
       worker domains burn CPU concurrently). The results must be
       bit-identical; the check lands in the JSON. On a single-core
       host the speedup hovers around 1. *)
    let wall = Unix.gettimeofday in
    let timed f =
      let t = wall () in
      let r = f () in
      (r, Float.max 1e-9 (wall () -. t))
    in
    let par_case name run =
      let r1, t1 = timed (fun () -> run 1) in
      let r4, t4 = timed (fun () -> run 4) in
      (name, t1, t4, r1 = r4)
    in
    let par_rows =
      [
        par_case "fig4" (fun jobs -> Fig4.run ~runs:24 ~jobs Common.Residential);
        par_case "fig6" (fun jobs -> Fig6.run ~runs:10 ~jobs Common.Residential);
        par_case "convergence" (fun jobs ->
            Convergence.run ~runs:6 ~jobs Common.Residential);
      ]
    in
    let par_t1 = List.fold_left (fun a (_, t, _, _) -> a +. t) 0.0 par_rows in
    let par_t4 = List.fold_left (fun a (_, _, t, _) -> a +. t) 0.0 par_rows in
    let par_identical = List.for_all (fun (_, _, _, ok) -> ok) par_rows in
    (* On a 1-core container the 4-job "speedup" only measures domain
       spawn overhead and reads as a regression; keep the bit-identity
       check (it needs no second core to be meaningful) but publish
       the speedup only when there is real parallel hardware. *)
    let parallel_speedup_4j =
      if cores > 1 then Some (par_t1 /. Float.max 1e-9 par_t4) else None
    in
    let speedup_json =
      match parallel_speedup_4j with
      | Some v -> Printf.sprintf "%.2f" v
      | None -> "null"
    in
    let speedup_note =
      match parallel_speedup_4j with
      | Some _ -> "measured"
      | None -> "skipped_single_core"
    in
    (* Empirical load-sweep probe: a pinned small sweep (the golden's
       parameters, seed 17) at a moderate and a heavy load factor.
       Achieved load and per-bucket tail FCT land in the JSON so
       regressions in the open-loop workload path or the FCT
       accounting show up per-commit next to the throughput numbers. *)
    let t4 = wall () in
    let ls =
      Loadsweep.sweep ~pairs:3 ~conns:2 ~duration:10.0 ~seed:17 [ 0.5; 0.8 ]
    in
    let loadsweep_wall_s = Float.max 1e-9 (wall () -. t4) in
    let bucket_p99 p label =
      match
        List.find_opt (fun b -> b.Loadsweep.label = label) p.Loadsweep.buckets
      with
      | Some b -> b.Loadsweep.p99
      | None -> 0.0
    in
    let loadsweep_rows =
      List.map
        (fun p ->
          Printf.sprintf
            "{\"load\": %.2f, \"achieved_load\": %.4f, \"completed\": %d, \
             \"p99_fct_tiny_s\": %.4f, \"p99_fct_short_s\": %.4f, \
             \"p99_fct_long_s\": %.4f}"
            p.Loadsweep.load p.Loadsweep.achieved_load p.Loadsweep.completed
            (bucket_p99 p "tiny") (bucket_p99 p "short") (bucket_p99 p "long"))
        ls.Loadsweep.points
    in
    let oc = open_out "BENCH_sim.json" in
    Printf.fprintf oc
      "{\n\
      \  \"scenario\": \"fig4 residential (seed 77), flow 0->9, %.0f s sim\",\n\
      \  \"runs\": %d,\n\
      \  \"elapsed_s\": %.3f,\n\
      \  \"runs_per_s\": %.2f,\n\
      \  \"events_per_s\": %.0f,\n\
      \  \"ns_per_event\": %.1f,\n\
      \  \"minor_words_per_event\": %.2f,\n\
      \  \"delivered_frames_per_s\": %.0f,\n\
      \  \"peak_event_queue\": %d,\n\
      \  \"events_per_s_traced\": %.0f,\n\
      \  \"trace_events_per_run\": %d,\n\
      \  \"trace_overhead_pct\": %.1f,\n\
      \  \"flight_overhead_pct\": %.1f,\n\
      \  \"buffered_events_per_s\": %.0f,\n\
      \  \"prof_events\": %d,\n\
      \  \"prof_ns_per_event\": %.1f,\n\
      \  \"prof_minor_words_per_event\": %.2f,\n\
      \  \"prof_shares_pct\": {%s},\n\
      \  \"chaos_events_per_s\": %.0f,\n\
      \  \"chaos_fault_events_per_run\": %d,\n\
      \  \"sever_events_per_s\": %.0f,\n\
      \  \"sever_detect_s\": %.3f,\n\
      \  \"sever_recovery_s\": %.3f,\n\
      \  \"sever_goodput_mbps\": %.3f,\n\
      \  \"churn_scenario\": \"%s (seed %d), %.0f s sim\",\n\
      \  \"churn_events_per_s\": %.0f,\n\
      \  \"churn_route_deaths\": %d,\n\
      \  \"churn_min_availability\": %.3f,\n\
      \  \"churn_slo_met\": %b,\n\
      \  \"parallel_figure_wall_s\": {%s},\n\
      \  \"parallel_identical\": %b,\n\
      \  \"cores\": %d,\n\
      \  \"parallel_speedup_4j\": %s,\n\
      \  \"parallel_speedup_note\": \"%s\",\n\
      \  \"loadsweep_wall_s\": %.3f,\n\
      \  \"loadsweep_capacity_mbps\": %.3f,\n\
      \  \"loadsweep_points\": [%s]\n\
       }\n"
      duration reps elapsed runs_s events_s
      (elapsed *. 1e9 /. float_of_int (max 1 !events))
      (minor_words /. float_of_int (max 1 !events))
      frames_s !peak_q events_s_traced
      (!trace_events / reps) overhead_pct flight_overhead_pct buffered_events_s
      prof_events_n prof_ns
      prof_words prof_shares chaos_events_s
      (!chaos_faults / reps) sever_events_s sever_flow.Scenario.detect_s
      sever_flow.Scenario.recovery_s sever_flow.Scenario.goodput_mbps
      churn_spec.Scenario.name churn_spec.Scenario.seed
      churn_spec.Scenario.duration churn_events_s
      churn_card.Scenario.route_deaths
      churn_card.Scenario.min_availability_measured
      churn_card.Scenario.slo_met
      (String.concat ", "
         (List.map
            (fun (nm, t1, t4, _) ->
              Printf.sprintf "\"%s_j1_s\": %.3f, \"%s_j4_s\": %.3f" nm t1 nm t4)
            par_rows))
      par_identical cores speedup_json speedup_note loadsweep_wall_s
      ls.Loadsweep.capacity_mbps
      (String.concat ", " loadsweep_rows);
    close_out oc;
    Printf.printf
      "BENCH_sim.json: %.2f runs/s, %.0f events/s (%.1f ns, %.2f minor words \
       per event), %.0f frames/s, trace overhead %.1f%% (flight %.1f%%), \
       chaos %.0f events/s, severance detect %.3f s \
       / recovery %.3f s, churn scenario %.0f events/s (min availability \
       %.3f, SLO met: %b), %d-core 4-job speedup %s (identical: %b), \
       loadsweep achieved %s in %.1f s\n\
       %!"
      runs_s events_s
      (elapsed *. 1e9 /. float_of_int (max 1 !events))
      (minor_words /. float_of_int (max 1 !events))
      frames_s overhead_pct flight_overhead_pct
      chaos_events_s sever_flow.Scenario.detect_s sever_flow.Scenario.recovery_s
      churn_events_s churn_card.Scenario.min_availability_measured
      churn_card.Scenario.slo_met
      cores
      (match parallel_speedup_4j with
      | Some v -> Printf.sprintf "%.2fx" v
      | None -> "skipped (single core)")
      par_identical
      (String.concat "/"
         (List.map
            (fun p -> Printf.sprintf "%.2f" p.Loadsweep.achieved_load)
            ls.Loadsweep.points))
      loadsweep_wall_s

(* ---------- part 1c: CI perf regression gate ---------- *)

(* [bench check] (the `--check` gate): re-times the pinned scenario
   with the same warmup + median-of-rounds methodology as the sim
   section and exits non-zero if events/s lands more than
   [check_tolerance_pct] below the committed BENCH_baseline.json
   snapshot. The gate reads only the baseline's [events_per_s] field;
   refresh the snapshot by copying a representative BENCH_sim.json
   over it when a deliberate engine change moves the number.

   The tolerance is sized to the CI container's co-tenant jitter, not
   to the regressions we care about: identical code measures anywhere
   in a roughly +-25% band around the baseline on a shared 1-core
   box, while the failure modes worth catching (a reintroduced
   per-event allocation, an accidental O(n) scan on the hot path)
   cost 2x or more. *)
let baseline_file = "BENCH_baseline.json"
let check_tolerance_pct = 35.0

let run_sim_check () =
  let baseline =
    match Obs.Json.of_file baseline_file with
    | Error e ->
      Printf.eprintf "bench check: %s — commit a baseline snapshot\n" e;
      exit 2
    | Ok j -> (
      match
        Option.bind (Obs.Json.member "events_per_s" j) Obs.Json.to_float_opt
      with
      | Some v when v > 0.0 -> v
      | Some _ | None ->
        Printf.eprintf "bench check: no events_per_s in %s\n" baseline_file;
        exit 2)
  in
  match sim_runner () with
  | None ->
    Printf.eprintf "bench check: skipped (no route 0 -> 9)\n";
    exit 2
  | Some one ->
    let events = ref 0 in
    for i = 1 to bench_reps do
      events := !events + (one i).Engine.events_processed
    done;
    let elapsed = timed_config (fun i -> ignore (one i)) in
    let events_s = float_of_int !events /. elapsed in
    let floor_events_s = baseline *. (1.0 -. (check_tolerance_pct /. 100.0)) in
    let verdict = events_s >= floor_events_s in
    Printf.printf
      "bench check: %.0f events/s measured vs %.0f baseline (floor %.0f, \
       -%.0f%%): %s\n\
       %!"
      events_s baseline floor_events_s check_tolerance_pct
      (if verdict then "OK" else "REGRESSION");
    if not verdict then exit 1

(* ---------- part 2: table/figure regeneration ---------- *)

let scale =
  match Sys.getenv_opt "EMPOWER_BENCH_RUNS" with
  | Some s -> ( match int_of_string_opt s with Some v when v > 0 -> v | _ -> 100)
  | None -> 100

let scaled default = max 3 (default * scale / 100)

let header title = Printf.printf "\n===== %s =====\n%!" title

let run_experiments () =
  header "Figure 4 (residential + enterprise)";
  Fig4.print (Fig4.run ~runs:(scaled 30) Common.Residential);
  Fig4.print (Fig4.run ~runs:(scaled 30) Common.Enterprise);
  header "Figure 5";
  Fig5.print (Fig5.run ~runs:(scaled 30) Common.Residential);
  Fig5.print (Fig5.run ~runs:(scaled 30) Common.Enterprise);
  header "Figure 6";
  Fig6.print (Fig6.run ~runs:(scaled 15) Common.Residential);
  Fig6.print (Fig6.run ~runs:(scaled 15) Common.Enterprise);
  header "Figure 7";
  Fig7.print (Fig7.run ~runs:(scaled 8) Common.Residential);
  Fig7.print (Fig7.run ~runs:(scaled 8) Common.Enterprise);
  header "Convergence (Section 5.2.2)";
  Convergence.print (Convergence.run ~runs:(scaled 6) Common.Residential);
  Convergence.print (Convergence.run ~runs:(scaled 6) Common.Enterprise);
  header "Figure 9 (packet-level)";
  Fig9.print (Fig9.run ~time_scale:0.1 ());
  header "Figure 10";
  Fig10.print (Fig10.run ~pairs:(scaled 15) ());
  header "Figure 11 (packet-level)";
  Fig11.print (Fig11.run ~duration:150.0 ());
  header "Table 1 (packet-level)";
  Table1.print (Table1.run ~repeats:(max 2 (scaled 2)) ~long_scale:0.02 ());
  header "Figure 12 (packet-level TCP)";
  Fig12.print (Fig12.run ~phase_seconds:120.0 ());
  header "Figure 13 (packet-level TCP)";
  Fig13.print (Fig13.run ~duration:80.0 ());
  header "Footnote 7: metric comparison";
  Metric_comparison.print (Metric_comparison.run ~runs:(scaled 15) Common.Residential);
  Metric_comparison.print (Metric_comparison.run ~runs:(scaled 15) Common.Enterprise);
  header "Section 7: MPTCP applicability";
  Mptcp_applicability.print (Mptcp_applicability.run ());
  header "MAC fairness [40]";
  Mac_fairness.print (Mac_fairness.run ~slots:(max 20000 (scaled 100_000)) ());
  header "Ablations";
  Ablations.print (Ablations.n_shortest ~runs:(scaled 10) ());
  Ablations.print (Ablations.csc ~runs:(scaled 10) ());
  Ablations.print (Ablations.delta ~runs:(scaled 10) ());
  Ablations.print (Ablations.tree_depth ~runs:(scaled 10) ());
  Ablations.print (Ablations.gain ~runs:(scaled 5) ());
  Ablations.print (Ablations.delta_delay ())

let () =
  let sections =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> [ "kernels"; "sim"; "experiments" ]
    | args -> args
  in
  List.iter
    (function
      | "kernels" -> run_kernels ()
      | "sim" -> write_sim_bench ()
      | "check" | "--check" -> run_sim_check ()
      | "experiments" -> run_experiments ()
      | s ->
        Printf.eprintf
          "unknown bench section %S (expected kernels, sim, check or \
           experiments)\n"
          s;
        exit 2)
    sections;
  print_endline "\nbench: done"
