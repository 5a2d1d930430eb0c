(* The repository benchmark: four workloads measured end to end, and a
   traced run that attributes their cost to the library's layers.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Every workload draws its inputs from the seed in a set-up phase,
   then repeats one fixed pass over those inputs until S seconds have
   elapsed. End-to-end figures are medians over the passes; host time
   is process CPU time (user + sys), reported in reference seconds (see
   [reference_cpu]). The last stdout line is one JSON
   object {correct, attempted, failed, metrics}. README.md beside this
   file defines every workload and metric. *)

(* ------------------------------------------------------------------ *)
(* Clocks, timers, small statistics                                     *)

let cpu () = Sys.time ()

type timer = { mutable s : float; mutable calls : int }

let timer () = { s = 0.0; calls = 0 }

let timed tm f =
  let t0 = cpu () in
  let r = f () in
  tm.s <- tm.s +. (cpu () -. t0);
  tm.calls <- tm.calls + 1;
  r

let median = function
  | [] -> nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* Machine-speed reference. Other tenants of a shared machine shift the
   CPU cost of the same pass by 20-35% for minutes at a time, too slowly
   for the median of one run's passes to cancel. A fixed workload of the
   benchmark's own (hashing, sorting, boxed floats), which no library
   change can move, runs beside the timed work; time metrics are
   reported in reference seconds, CPU seconds scaled by
   [reference_nominal_s / reference CPU]. *)
let reference_nominal_s = 0.06

let reference_cpu () =
  let t0 = cpu () in
  let h = Hashtbl.create 4096 in
  let acc = ref 0.0 in
  for i = 0 to 600_000 do
    Hashtbl.replace h (i land 4095) (float_of_int i);
    acc := !acc +. Float.sqrt (float_of_int i)
  done;
  let l = List.init 150_000 (fun i -> float_of_int (i * 7919 mod 150_001)) in
  ignore (Sys.opaque_identity (List.sort compare l, !acc, h));
  cpu () -. t0

let hex_of_digests ds = Digest.to_hex (Digest.string (String.concat "" ds))

(* ------------------------------------------------------------------ *)
(* Per-layer timers of the traced run: the benchmark's own calls into   *)
(* each layer's public functions. Nothing inside lib/ is instrumented.  *)

type layers = {
  topology : timer;  (* instance draws, Builder.graph, Domain.of_instance *)
  routing : timer;   (* Empower.plan, Schemes.routes_for, Update.path_rate *)
  control : timer;   (* Problem.make + Multi_cc.solve *)
  lp : timer;        (* Opt_solver.max_throughput *)
  fluid : timer;     (* Fluid.goodput *)
  decode : timer;    (* Scenario.catalog + Scenario.load *)
  mutable slots : int;  (* controller slots run by Multi_cc.solve *)
}

let new_layers () =
  {
    topology = timer ();
    routing = timer ();
    control = timer ();
    lp = timer ();
    fluid = timer ();
    decode = timer ();
    slots = 0;
  }

let in_layer ly pick f = match ly with None -> f () | Some ly -> timed (pick ly) f

(* ------------------------------------------------------------------ *)
(* How a pass observes the library                                       *)

type mode =
  | Plain  (** the workload exactly as measured end to end *)
  | Bare  (** no optional observation (churn: no flight ring) *)
  | Prof of Obs.Prof.t  (** Engine.run ~prof *)
  | Count of int array  (** counting trace sink, one slot per event kind *)
  | Recorder  (** an Obs.Recorder sink *)
  | Flight  (** an Obs.Flight ring *)
  | Layers of layers  (** flow-level calls made one layer at a time *)

let kind_names =
  [| "enqueue"; "grant"; "dequeue"; "collision"; "drop"; "delivery"; "price";
     "rate"; "ack"; "link"; "loss"; "ctrl"; "route_dead"; "route_probe";
     "route_restored"; "price_reset"; "mark" |]

let kind_ix : Obs.Trace.event -> int = function
  | Enqueue _ -> 0
  | Mac_grant _ -> 1
  | Dequeue _ -> 2
  | Collision _ -> 3
  | Drop _ -> 4
  | Delivery _ -> 5
  | Price_update _ -> 6
  | Rate_update _ -> 7
  | Ack _ -> 8
  | Link_event _ -> 9
  | Loss_event _ -> 10
  | Ctrl_event _ -> 11
  | Route_dead _ -> 12
  | Route_probe _ -> 13
  | Route_restored _ -> 14
  | Price_reset _ -> 15
  | Ecn_mark _ -> 16

let count_of c name =
  let i = ref (-1) in
  Array.iteri (fun j n -> if n = name then i := j) kind_names;
  c.(!i)

let count_sink c =
  Obs.Trace.of_fn (fun ev ->
      let k = kind_ix ev in
      c.(k) <- c.(k) + 1)

let results_dir = Filename.concat "perfbench" "results"
let flight_dump = Filename.concat results_dir "flight-dump.jsonl"
let new_ring () = Obs.Flight.create ~dump_path:flight_dump ()
let new_recorder () = Obs.Recorder.create (Obs.Metrics.create ())

(* ------------------------------------------------------------------ *)
(* Units, passes and prepared workloads                                 *)

type unit_result = {
  digest : string;  (** of every simulated statistic of the unit *)
  goodputs : float list;  (** Mbit/s, one per flow *)
  events : int;  (** engine events (flow-level evaluations on paper-flow) *)
  ticks : int;  (** controller ticks simulated *)
  check : unit -> string option;  (** output check; [Some why] on failure *)
}

type prepared = {
  units : int;
  run : mode -> int -> unit_result;
  spot_checks : (unit -> string option) list;  (** run once per invocation *)
}

type pass = {
  cpu_s : float;
  ref_cpu : float;  (** mean reference CPU around and during the pass *)
  words : float;
  pass_events : int;
  results : unit_result array;
}

(* The reference runs before the pass, after it, and between units
   whenever a CPU second has passed since the last run, so a long pass
   is compared with the machine's speed through all of it. Its CPU and
   minor words are kept out of the pass's own. *)
let run_pass (p : prepared) mode =
  Gc.full_major ();
  let refs = ref [ reference_cpu () ] in
  let busy = ref 0.0 and words = ref 0.0 and since_ref = ref 0.0 in
  let results =
    Array.init p.units (fun i ->
        let w0 = Gc.minor_words () in
        let t0 = cpu () in
        let r = p.run mode i in
        let dt = cpu () -. t0 in
        words := !words +. (Gc.minor_words () -. w0);
        busy := !busy +. dt;
        since_ref := !since_ref +. dt;
        if !since_ref >= 1.0 || i = p.units - 1 then begin
          refs := reference_cpu () :: !refs;
          since_ref := 0.0
        end;
        r)
  in
  {
    cpu_s = !busy;
    ref_cpu = List.fold_left ( +. ) 0.0 !refs /. float_of_int (List.length !refs);
    words = !words;
    pass_events = Array.fold_left (fun a r -> a + r.events) 0 results;
    results;
  }

let pass_digest p = hex_of_digests (Array.to_list (Array.map (fun r -> r.digest) p.results))

(* ------------------------------------------------------------------ *)
(* Shared engine plumbing (testbed-udp, testbed-tcp)                    *)

type engine_unit = {
  flows : Engine.flow_spec list;
  engine_seed : int;
}

(* Exact LP bounds of every testbed pair. Opt_solver.max_throughput
   spends about 1.3 s per testbed pair compiling the rate region, so
   the bounds of all 462 pairs are computed once into a committed
   table (bench.exe --lp-table FILE writes it); every run re-solves
   one seed-chosen pair live and fails if the table disagrees. *)
let lp_table_file = Filename.concat "perfbench" "testbed_lp.json"

let exact_lp net ~src ~dst =
  Opt_solver.max_throughput Rate_region.Exact net.Empower.g net.Empower.dom ~src ~dst

let write_lp_table net path =
  let n = Multigraph.n_nodes net.Empower.g in
  let rows =
    List.concat_map
      (fun src ->
        List.filter_map
          (fun dst ->
            if src = dst then None
            else
              Some
                (Obs.Json.List
                   [ Obs.Json.Int src; Obs.Json.Int dst; Obs.Json.Float (exact_lp net ~src ~dst) ]))
          (List.init n Fun.id))
      (List.init n Fun.id)
  in
  let oc = open_out path in
  output_string oc
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("instance", Obs.Json.String "Testbed.generate (Rng.create 4242), Hybrid");
            ("model", Obs.Json.String "Opt_solver.max_throughput Rate_region.Exact");
            ("bounds", Obs.Json.List rows);
          ]));
  output_char oc '\n';
  close_out oc

let read_lp_table () =
  let fail msg =
    Printf.eprintf "perfbench: %s: %s\n" lp_table_file msg;
    exit 2
  in
  let text =
    try In_channel.with_open_bin lp_table_file In_channel.input_all
    with Sys_error e -> fail e
  in
  let tbl = Hashtbl.create 512 in
  (match Obs.Json.parse text with
  | Error e -> fail e
  | Ok j -> (
    match Obs.Json.member "bounds" j with
    | Some (Obs.Json.List rows) ->
      List.iter
        (function
          | Obs.Json.List [ s; d; v ] -> (
            match (Obs.Json.to_int_opt s, Obs.Json.to_int_opt d, Obs.Json.to_float_opt v) with
            | Some s, Some d, Some v -> Hashtbl.replace tbl (s, d) v
            | _ -> fail "malformed bound")
          | _ -> fail "malformed bound")
        rows
    | _ -> fail "no bounds"));
  tbl

let lp_table = lazy (read_lp_table ())

let table_bound ~src ~dst =
  Option.value ~default:nan (Hashtbl.find_opt (Lazy.force lp_table) (src, dst))

(* The repository's engine <= LP property, with its tolerance. *)
let check_engine (u : engine_unit) gps =
  List.find_map
    (fun ((f : Engine.flow_spec), gp) ->
      let b = table_bound ~src:f.src ~dst:f.dst in
      if Float.is_nan gp || gp < 0.0 || Float.is_nan b || gp > (b *. 1.05) +. 1.0 then
        Some
          (Printf.sprintf "flow %d->%d goodput %.3f Mbit/s vs LP bound %.3f" f.src f.dst
             gp b)
      else None)
    (List.combine u.flows gps)

(* The live re-solve that keeps the committed table honest. *)
let spot_check net ~src ~dst () =
  let live = exact_lp net ~src ~dst and b = table_bound ~src ~dst in
  if Float.abs (live -. b) <= 1e-9 *. Float.max 1.0 live then None
  else
    Some
      (Printf.sprintf "%s is stale: pair %d->%d solves to %.17g, table says %.17g"
         lp_table_file src dst live b)

let run_engine ~config ~duration net mode (u : engine_unit) =
  let g = net.Empower.g and dom = net.Empower.dom in
  let go ?trace ?flight ?prof () =
    Engine.run ~config ?trace ?flight ?prof (Rng.create u.engine_seed) g dom
      ~flows:u.flows ~duration
  in
  let r =
    match mode with
    | Prof p -> go ~prof:p ()
    | Count c -> go ~trace:(count_sink c) ()
    | Recorder ->
      let rc = new_recorder () in
      let r = go ~trace:(Obs.Recorder.sink rc) () in
      Obs.Recorder.flush rc ~now:duration;
      r
    | Flight -> go ~flight:(new_ring ()) ()
    | Plain | Bare | Layers _ -> go ()
  in
  let gps =
    Array.to_list
      (Array.map
         (fun (fr : Engine.flow_result) ->
           float_of_int fr.received_bytes *. 8e-6 /. duration)
         r.flows)
  in
  {
    digest = Digest.string (Marshal.to_string (Engine.strip_perf r) [ Marshal.No_sharing ]);
    goodputs = gps;
    events = r.events_processed;
    ticks = int_of_float (duration /. config.Engine.control_period);
    check = (fun () -> check_engine u gps);
  }

let testbed_net ly =
  in_layer ly
    (fun l -> l.topology)
    (fun () -> Empower.of_instance (Testbed.generate (Rng.create 4242)) Builder.Hybrid)

(* Flow sources cycle through seeded permutations of the nodes, so each
   node sources about equally many flows and the pass's mix varies less
   from seed to seed; destinations are uniform over the other nodes. *)
let pair_drawer rng ~n =
  let perm = Array.init n Fun.id and pos = ref n in
  let next_src () =
    if !pos = n then begin
      Rng.shuffle rng perm;
      pos := 0
    end;
    incr pos;
    perm.(!pos - 1)
  in
  let rec dst_for src =
    let d = Rng.int rng n in
    if d = src then dst_for src else d
  in
  (* [k] pairs with distinct sources. *)
  fun ~k ->
    let rec go acc k =
      if k = 0 then List.rev acc
      else
        let src = next_src () in
        if List.exists (fun (s, _) -> s = src) acc then go acc k
        else go ((src, dst_for src) :: acc) (k - 1)
    in
    go [] k

(* ------------------------------------------------------------------ *)
(* testbed-udp: saturated multipath UDP with CC on the testbed          *)

let udp_units = 24
let udp_duration = 5.0
let udp_delta = 0.05
let udp_config = { Engine.default_config with delta = udp_delta }

(* Empower.allocate; traced, the same calls one layer at a time. *)
let allocate ly net ~flows =
  match ly with
  | None -> Empower.allocate ~delta:udp_delta net ~flows
  | Some ly ->
    let plans =
      Array.of_list
        (List.map
           (fun (src, dst) -> timed ly.routing (fun () -> Empower.plan net ~src ~dst))
           flows)
    in
    let paths p = p.Empower.combination.Multipath.paths in
    let flow_routes =
      Array.to_list (Array.map (fun p -> Multipath.routes p.Empower.combination) plans)
    in
    let x_init =
      Array.of_list (List.concat_map (fun p -> List.map snd (paths p)) (Array.to_list plans))
    in
    let cc =
      timed ly.control (fun () ->
          Multi_cc.solve ~x_init ~slots:3000
            (Problem.make ~delta:udp_delta net.Empower.g net.Empower.dom
               ~flows:flow_routes))
    in
    ly.slots <- ly.slots + cc.Cc_result.slots;
    let idx = ref 0 in
    let route_rates =
      Array.map
        (fun p ->
          let k = List.length (paths p) in
          let a = Array.sub cc.Cc_result.rates !idx k in
          idx := !idx + k;
          a)
        plans
    in
    { Empower.plans; flow_rates = cc.Cc_result.flow_rates; route_rates; cc }

let setup_udp ly seed =
  let net = testbed_net ly in
  let rng = Rng.create seed in
  let draw = pair_drawer rng ~n:(Multigraph.n_nodes net.Empower.g) in
  let units =
    Array.init udp_units (fun u ->
        let flows = draw ~k:(1 + (u mod 3)) in
        let alloc = allocate ly net ~flows in
        { flows = Empower.flow_specs_of_allocation alloc; engine_seed = Rng.int rng 1_000_000 })
  in
  let src, dst = List.hd (draw ~k:1) in
  {
    units = udp_units;
    run = (fun mode i -> run_engine ~config:udp_config ~duration:udp_duration net mode units.(i));
    spot_checks = [ spot_check net ~src ~dst ];
  }

(* ------------------------------------------------------------------ *)
(* testbed-tcp: Reno and DCTCP over finite DT buffers with ECN          *)

let tcp_units = 48
let tcp_duration = 3.0
let frame_bytes = Engine.default_config.Engine.frame_bytes

let tcp_config =
  {
    Engine.default_config with
    enable_cc = false;
    delay_equalize = false;
    buffers =
      Some
        {
          Engine.policy = Engine.Dynamic_threshold 1.0;
          pool_bytes = 64 * frame_bytes;
          ecn_threshold_bytes = Some (8 * frame_bytes);
        };
  }

let setup_tcp ly seed =
  let net = testbed_net ly in
  let rng = Rng.create seed in
  let draw = pair_drawer rng ~n:(Multigraph.n_nodes net.Empower.g) in
  let rec primary_route () =
    let src, dst = List.hd (draw ~k:1) in
    match
      in_layer ly
        (fun l -> l.routing)
        (fun () -> Runner.routes_and_rates net Schemes.Empower ~src ~dst)
    with
    | r :: _, v :: _ -> (src, dst, r, v)
    | _ -> primary_route ()
  in
  let units =
    Array.init tcp_units (fun u ->
        let src, dst, route, rate = primary_route () in
        let tcp_params = if u mod 2 = 0 then None else Some Tcp.dctcp_params in
        let spec =
          Runner.flow_spec ~transport:Engine.Tcp_transport ?tcp_params ~src ~dst
            ([ route ], [ rate ])
        in
        { flows = [ spec ]; engine_seed = Rng.int rng 1_000_000 })
  in
  let src, dst = List.hd (draw ~k:1) in
  {
    units = tcp_units;
    run = (fun mode i -> run_engine ~config:tcp_config ~duration:tcp_duration net mode units.(i));
    spot_checks = [ spot_check net ~src ~dst ];
  }

(* ------------------------------------------------------------------ *)
(* paper-flow: Section 5 flow-level replications                        *)

let paper_units = 40

let fig4_schemes =
  [ Schemes.Empower; Schemes.Sp; Schemes.Sp_wifi; Schemes.Mp_wifi; Schemes.Mp_mwifi ]

let graph_of ly inst scen =
  in_layer ly
    (fun l -> l.topology)
    (fun () ->
      let g = Builder.graph inst scen in
      (g, Domain.of_instance inst scen g))

(* Schemes.evaluate with its default options (no estimation noise,
   delta 0, 2000 slots), one layer at a time. Only the congestion-
   controlled schemes of Figure 4 are needed. *)
let evaluate_layered ly inst scheme ~flows =
  let l = Some ly in
  let g, dom = graph_of l inst (Schemes.scenario scheme) in
  let opts = Schemes.default_options in
  let flow_routes, rates =
    timed ly.routing (fun () ->
        let fr =
          List.map (fun (src, dst) -> Schemes.routes_for ~opts scheme g dom ~src ~dst) flows
        in
        (fr, List.map (List.map (Update.path_rate g dom)) fr))
  in
  let all_routes = List.concat flow_routes in
  if not (Schemes.uses_cc scheme) then invalid_arg "evaluate_layered: CC schemes only";
  if all_routes = [] then Array.make (List.length flows) 0.0
  else begin
    let res =
      timed ly.control (fun () ->
          let d = Array.init (Multigraph.num_links g) (Multigraph.d g) in
          let problem = Problem.make ~delta:opts.delta ~d g dom ~flows:flow_routes in
          Multi_cc.solve
            ~x_init:(Array.of_list (List.concat rates))
            ~slots:opts.cc_slots ~stop_tol:0.05 problem)
    in
    ly.slots <- ly.slots + res.Cc_result.slots;
    let offered = List.mapi (fun r p -> (p, res.Cc_result.rates.(r))) all_routes in
    let delivered = timed ly.fluid (fun () -> Fluid.goodput g dom ~offered) in
    (* Per-route rates summed back into per-flow totals, in order. *)
    let totals = Array.make (List.length flows) 0.0 in
    let rest = ref delivered in
    List.iteri
      (fun f ps ->
        List.iter
          (fun _ ->
            match !rest with
            | v :: tl ->
              totals.(f) <- totals.(f) +. v;
              rest := tl
            | [] -> assert false)
          ps)
      flow_routes;
    totals
  end

(* Replication [u] runs on instance [u] of a fixed pool (topology seed
   [u + 1], residential and enterprise alternating); the workload seed
   draws each replication's flow. Drawing the instances from the seed
   as well made the pass cost vary by 30% between seeds. *)
let setup_paper ly seed =
  let rng = Rng.create seed in
  let units =
    Array.init paper_units (fun u ->
        let topo = if u mod 2 = 0 then Common.Residential else Common.Enterprise in
        let inst =
          in_layer ly (fun l -> l.topology) (fun () -> Common.generate topo (Rng.create (u + 1)))
        in
        (inst, Common.random_flow rng inst))
  in
  let noise = Rng.create 0 in
  let run mode i =
    let inst, (src, dst) = units.(i) in
    let ly = match mode with Layers ly -> Some ly | _ -> None in
    let opt =
      let g, dom = graph_of ly inst Builder.Hybrid in
      in_layer ly
        (fun l -> l.lp)
        (fun () -> Opt_solver.max_throughput Rate_region.Exact g dom ~src ~dst)
    in
    let rates =
      List.map
        (fun s ->
          match ly with
          | None -> (Schemes.evaluate noise inst s ~flows:[ (src, dst) ]).(0)
          | Some ly -> (evaluate_layered ly inst s ~flows:[ (src, dst) ]).(0))
        fig4_schemes
    in
    let check () =
      (* No scheme beats the exact optimum of its own technology set by
         more than the controller's rounding: 2% + 0.2 Mbit/s, the
         tolerance of test_baselines' "delivered <= optimal" test. *)
      let opt_for = function
        | Builder.Hybrid -> opt
        | scen ->
          let g, dom = graph_of None inst scen in
          Opt_solver.max_throughput Rate_region.Exact g dom ~src ~dst
      in
      List.find_map
        (fun (s, x) ->
          let o = opt_for (Schemes.scenario s) in
          if Float.is_nan x || x < 0.0 || x > (o *. 1.02) +. 0.2 then
            Some
              (Printf.sprintf "%s on %d->%d: %.6f Mbit/s vs exact optimum %.6f"
                 (Schemes.name s) src dst x o)
          else None)
        (List.combine fig4_schemes rates)
    in
    {
      digest = Digest.string (Marshal.to_string (opt, rates) [ Marshal.No_sharing ]);
      goodputs = [ List.hd rates ];
      events = 1 + List.length rates;
      ticks = 0;
      check;
    }
  in
  { units = paper_units; run; spot_checks = [] }

(* ------------------------------------------------------------------ *)
(* churn-catalog: the shipped scenarios/ catalog                        *)

let setup_churn ly seed =
  let fail msg =
    prerr_endline ("perfbench: churn-catalog: " ^ msg);
    exit 2
  in
  let specs =
    in_layer ly
      (fun l -> l.decode)
      (fun () ->
        match Scenario.catalog "scenarios" with
        | Error e -> fail e
        | Ok entries ->
          List.map
            (fun (_, path) ->
              match Scenario.load path with
              | Ok s -> { s with Scenario.seed = s.Scenario.seed + seed }
              | Error e -> fail (path ^ ": " ^ e))
            entries)
  in
  let specs = Array.of_list specs in
  if Array.length specs = 0 then fail "empty scenarios/ catalog";
  let run mode i =
    let spec = specs.(i) in
    let sc =
      match mode with
      | Bare -> Scenario.run spec
      | Count c -> Scenario.run ~trace:(count_sink c) ~flight:(new_ring ()) spec
      | Recorder ->
        Scenario.run ~trace:(Obs.Recorder.sink (new_recorder ())) ~flight:(new_ring ()) spec
      | Plain | Prof _ | Flight | Layers _ -> Scenario.run ~flight:(new_ring ()) spec
    in
    let json = Obs.Json.to_string (Scenario.to_json sc) in
    let check () =
      let in01 x = x >= 0.0 && x <= 1.0 in
      if not (List.for_all (fun (f : Scenario.flow_score) -> in01 f.availability) sc.flows)
      then Some (spec.name ^ ": availability outside [0, 1]")
      else if not (in01 sc.min_availability_measured) then
        Some (spec.name ^ ": min availability outside [0, 1]")
      else
        match Obs.Json.parse json with
        | Error e -> Some (spec.name ^ ": scorecard JSON does not parse: " ^ e)
        | Ok j when Obs.Json.to_string j <> json ->
          Some (spec.name ^ ": scorecard JSON does not round-trip")
        | Ok _ -> None
    in
    {
      digest = Digest.string json;
      goodputs = List.map (fun (f : Scenario.flow_score) -> f.goodput_mbps) sc.flows;
      events = sc.events_processed;
      ticks = int_of_float (spec.duration /. Engine.default_config.Engine.control_period);
      check;
    }
  in
  { units = Array.length specs; run; spot_checks = [] }

(* ------------------------------------------------------------------ *)
(* Workload table                                                       *)

type workload = {
  name : string;
  setup : layers option -> int -> prepared;
  engine : bool;  (** runs Engine.run itself (so ~prof applies) *)
}

let workloads =
  [
    { name = "testbed-udp"; setup = setup_udp; engine = true };
    { name = "testbed-tcp"; setup = setup_tcp; engine = true };
    { name = "paper-flow"; setup = setup_paper; engine = false };
    { name = "churn-catalog"; setup = setup_churn; engine = false };
  ]

(* ------------------------------------------------------------------ *)
(* Checks shared by both runs                                           *)

type tally = { mutable attempted : int; mutable failed : int }

(* Output checks on a reference pass, then every later pass must
   reproduce the reference digests unit by unit. *)
let check_pass tally (prep : prepared) (p : pass) =
  List.iter
    (fun check ->
      tally.attempted <- tally.attempted + 1;
      match check () with
      | None -> ()
      | Some why ->
        tally.failed <- tally.failed + 1;
        Printf.printf "check failed: %s\n" why)
    (prep.spot_checks @ Array.to_list (Array.map (fun r -> r.check) p.results))

let check_repeat tally ~(reference : pass) (p : pass) =
  Array.iteri
    (fun i r ->
      tally.attempted <- tally.attempted + 1;
      if r.digest <> reference.results.(i).digest then begin
        tally.failed <- tally.failed + 1;
        Printf.printf "check failed: unit %d digest differs from the reference pass\n" i
      end)
    p.results

(* Run [f] at least [min_runs] times and until [seconds] of wall time
   have elapsed. *)
let repeat ~seconds ~min_runs f =
  let t0 = Unix.gettimeofday () in
  let rec go acc n =
    let acc = f n :: acc in
    if n + 1 >= min_runs && Unix.gettimeofday () -. t0 >= seconds then List.rev acc
    else go acc (n + 1)
  in
  go [] 0

(* ------------------------------------------------------------------ *)
(* Output                                                               *)

let write_file name contents =
  if not (Sys.file_exists results_dir) then Sys.mkdir results_dir 0o755;
  let path = Filename.concat results_dir name in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  path

let metric_json metrics =
  Obs.Json.Obj
    (List.map
       (fun (name, v, unit) ->
         (name, Obs.Json.Obj [ ("value", Obs.Json.Float v); ("unit", Obs.Json.String unit) ]))
       metrics)

let final_line ~correct tally metrics =
  Obs.Json.to_string
    (Obs.Json.Obj
       [
         ("correct", Obs.Json.Bool correct);
         ("attempted", Obs.Json.Int tally.attempted);
         ("failed", Obs.Json.Int tally.failed);
         ("metrics", metric_json metrics);
       ])

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* ------------------------------------------------------------------ *)
(* Untraced run: the end-to-end metrics                                 *)

(* Set-up is timed after the timed phase, so its repeats leave that
   phase's peak heap alone: at least three set-ups and until they have
   taken a second of CPU (at most 1000), so a set-up of a fraction of a
   millisecond is not one clock tick's noise. Returns the median host
   CPU, the number of set-ups and the reference CPU around them. *)
let setup_times w seed =
  Gc.full_major ();
  let r0 = reference_cpu () in
  let rec go times n spent =
    if n >= 3 && (spent >= 1.0 || n >= 1000) then times
    else begin
      let t0 = cpu () in
      ignore (Sys.opaque_identity (w.setup None seed));
      let dt = cpu () -. t0 in
      go (dt :: times) (n + 1) (spent +. dt)
    end
  in
  let times = go [] 0 0.0 in
  (median times, List.length times, 0.5 *. (r0 +. reference_cpu ()))

let end_to_end w ~seed ~seconds ~ambient =
  let tally = { attempted = 0; failed = 0 } in
  let prep = w.setup None seed in
  let passes = repeat ~seconds ~min_runs:3 (fun _ -> run_pass prep Plain) in
  let reference = List.hd passes in
  let peak_mb = peak_heap_mb () in
  check_pass tally prep reference;
  List.iter (check_repeat tally ~reference) (List.tl passes);
  let setup_cpu, setup_n, setup_ref = setup_times w seed in
  let med f = median (List.map f passes) in
  let ref_s cpu_s ref_cpu = cpu_s *. reference_nominal_s /. ref_cpu in
  let run_s = med (fun p -> ref_s p.cpu_s p.ref_cpu) in
  let gps = Array.to_list reference.results |> List.concat_map (fun r -> r.goodputs) in
  let metrics =
    [
      ("setup_s", ref_s setup_cpu setup_ref, "s");
      ("run_s", run_s, "s");
      ( "events_per_s",
        med (fun p -> float_of_int p.pass_events /. ref_s p.cpu_s p.ref_cpu),
        "1/s" );
      ("alloc_mwords", med (fun p -> p.words /. 1e6), "Mwords");
      ("peak_heap_mb", peak_mb, "MB");
      ("goodput_mbps", List.fold_left ( +. ) 0.0 gps /. float_of_int (List.length gps), "Mbit/s");
    ]
  in
  let digest = pass_digest reference in
  let error_rate = float_of_int tally.failed /. float_of_int tally.attempted in
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.bprintf buf fmt in
  pr "workload %s seed %d seconds %g trace 0\n" w.name seed seconds;
  pr "ambient %s\n" ambient;
  pr "passes %d (units per pass %d, set-ups %d); pass cpu_s %s\n" (List.length passes)
    prep.units setup_n
    (String.concat " " (List.map (fun p -> Printf.sprintf "%.3f" p.cpu_s) passes));
  pr "host CPU: set-up %.6g s, pass %.6g s (medians); reference %.6g s per %g s nominal\n"
    setup_cpu (med (fun p -> p.cpu_s)) (med (fun p -> p.ref_cpu)) reference_nominal_s;
  List.iter (fun (n, v, u) -> pr "%-14s %.6g %s\n" n v u) metrics;
  pr "%-14s %g ratio (%d of %d units failed)\n" "error_rate" error_rate tally.failed
    tally.attempted;
  pr "digest %s %s\n" w.name digest;
  let path =
    write_file (Printf.sprintf "%s-seed%d.e2e.txt" w.name seed) (Buffer.contents buf)
  in
  print_string (Buffer.contents buf);
  Printf.printf "written %s\n" path;
  print_endline (final_line ~correct:(tally.failed = 0) tally metrics)

(* ------------------------------------------------------------------ *)
(* Traced run: the per-layer metrics                                    *)

let unit_of name =
  let ends s = String.ends_with ~suffix:s name in
  if ends "_s" then "s"
  else if ends "_pct" then "%"
  else if ends "_x" then "ratio"
  else if ends ".words" then "words"
  else if ends "_ratio" || ends "per_tick" then "ratio"
  else "count"

let traced w ~seed ~seconds ~ambient =
  let tally = { attempted = 0; failed = 0 } in
  (* The untraced reference: plain set-up and one plain pass. *)
  let plain_prep = w.setup None seed in
  let reference = run_pass plain_prep Plain in
  check_pass tally plain_prep reference;
  (* The traced set-up, one layer at a time. *)
  let setup_ly = new_layers () in
  let prep = w.setup (Some setup_ly) seed in
  let modes =
    if w.engine then [ `Plain; `Prof; `Count; `Recorder; `Flight ]
    else if w.name = "paper-flow" then [ `Plain; `Layers ]
    else [ `Plain; `Bare; `Count; `Recorder ]
  in
  let passes = Hashtbl.create 8 in
  let add k v = Hashtbl.replace passes k (v :: Option.value ~default:[] (Hashtbl.find_opt passes k)) in
  let round _ =
    List.iter
      (fun m ->
        let mode =
          match m with
          | `Plain -> Plain
          | `Bare -> Bare
          | `Prof -> Prof (Obs.Prof.create ())
          | `Count -> Count (Array.make (Array.length kind_names) 0)
          | `Recorder -> Recorder
          | `Flight -> Flight
          | `Layers -> Layers (new_layers ())
        in
        let p = run_pass prep mode in
        check_repeat tally ~reference p;
        add m (mode, p))
      modes
  in
  ignore (repeat ~seconds ~min_runs:2 round);
  let of_mode m = List.rev (Option.value ~default:[] (Hashtbl.find_opt passes m)) in
  let med_cpu m = median (List.map (fun (_, p) -> p.cpu_s) (of_mode m)) in
  let plain_s = med_cpu `Plain in
  let over base m = if List.mem m modes then 100.0 *. (med_cpu m -. base) /. base else 0.0 in
  (* The recorder is measured on top of the plain pass; the flight ring
     against no ring, which on churn-catalog is the Bare pass because
     its plain pass already carries the ring. *)
  let recorder_pct = over plain_s `Recorder in
  let flight_pct =
    if List.mem `Bare modes then 100.0 *. (plain_s -. med_cpu `Bare) /. med_cpu `Bare
    else over plain_s `Flight
  in
  (* Observation's share of a churn pass, a lower bound: Scenario.run
     feeds an Obs.Recorder in both of its engine runs, each costing at
     least what one more recorder costs, plus the flight ring. The
     trace records the engine builds for those sinks are not counted. *)
  let obs_share med =
    if List.mem `Bare modes then
      100.0 *. ((2.0 *. (med `Recorder -. med `Plain)) +. (med `Plain -. med `Bare)) /. med `Plain
    else 0.0
  in
  let obs_share_pct = obs_share med_cpu in
  let obs_words_share_pct =
    obs_share (fun m -> median (List.map (fun (_, p) -> p.words) (of_mode m)))
  in
  (* Engine profile: median self time per category over the rounds. *)
  let profs =
    List.filter_map (function Prof p, _ -> Some p | _ -> None) (of_mode `Prof)
  in
  let prof_entry p name =
    List.find_opt (fun (e : Obs.Prof.entry) -> e.name = name) (Obs.Prof.report p)
  in
  let prof_med name f =
    median (List.map (fun p -> match prof_entry p name with Some e -> f e | None -> 0.0) profs)
  in
  let cats = Array.to_list Obs.Prof.categories in
  let self_s name = if profs = [] then 0.0 else prof_med name (fun e -> e.wall_s) in
  let total_self = List.fold_left (fun a c -> a +. self_s c) 0.0 cats in
  let share name = if total_self > 0.0 then 100.0 *. self_s name /. total_self else 0.0 in
  let prof_words name = if profs = [] then 0.0 else prof_med name (fun e -> e.minor_words) in
  let prof_events name =
    if profs = [] then 0.0 else prof_med name (fun e -> float_of_int e.events)
  in
  (* Exact counts from the first counting pass. *)
  let counts =
    match of_mode `Count with
    | (Count c, _) :: _ -> Some c
    | _ -> None
  in
  let cnt name = match counts with Some c -> float_of_int (count_of c name) | None -> 0.0 in
  let ticks = Array.fold_left (fun a r -> a + r.ticks) 0 reference.results in
  (* Flow-level layers: the traced set-up plus the median layered pass. *)
  let lys = List.filter_map (function Layers l, _ -> Some l | _ -> None) (of_mode `Layers) in
  let layer pick =
    (pick setup_ly).s +. if lys = [] then 0.0 else median (List.map (fun l -> (pick l).s) lys)
  in
  let layer_calls pick =
    float_of_int (pick setup_ly).calls
    +. if lys = [] then 0.0 else median (List.map (fun l -> float_of_int (pick l).calls) lys)
  in
  let slots =
    float_of_int setup_ly.slots
    +. if lys = [] then 0.0 else median (List.map (fun l -> float_of_int l.slots) lys)
  in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let values =
    [
      ("engine.controller.self_s", self_s "controller");
      ("engine.mac_phy.self_s", self_s "mac_phy");
      ("engine.traffic.self_s", self_s "traffic");
      ("engine.tcp.self_s", self_s "tcp");
      ("engine.recovery.self_s", self_s "recovery");
      ("engine.fault.self_s", self_s "fault");
      ("engine.scheduler.self_s", self_s "scheduler");
      ("engine.controller.words", prof_words "controller");
      ("engine.mac_phy.words", prof_words "mac_phy");
      ("engine.traffic.words", prof_words "traffic");
      ("engine.tcp.words", prof_words "tcp");
      ("engine.recovery.words", prof_words "recovery");
      ("engine.fault.words", prof_words "fault");
      ("engine.scheduler.words", prof_words "scheduler");
      ("engine.controller.share_pct", share "controller");
      ("engine.mac_phy.share_pct", share "mac_phy");
      ("engine.traffic.share_pct", share "traffic");
      ("engine.tcp.share_pct", share "tcp");
      ("engine.scheduler.share_pct", share "scheduler");
      ("engine.tcp.events", prof_events "tcp");
      ("engine.events", float_of_int reference.pass_events);
      ("control.prices_per_tick", ratio (cnt "price") (float_of_int ticks));
      ("mac.grants", cnt "grant");
      ("mac.collisions", cnt "collision");
      ("mac.drops", cnt "drop");
      ("mac.success_ratio", ratio (cnt "dequeue") (cnt "grant"));
      ("datapath.deliveries", cnt "delivery");
      ("buffers.ecn_marks", cnt "mark");
      ("lp.self_s", layer (fun l -> l.lp));
      ("lp.calls", layer_calls (fun l -> l.lp));
      ("control.solve_s", layer (fun l -> l.control));
      ("control.slots", slots);
      ("routing.self_s", layer (fun l -> l.routing));
      ("topology.self_s", layer (fun l -> l.topology));
      ("baselines.fluid_s", layer (fun l -> l.fluid));
      ("obs.recorder_overhead_pct", recorder_pct);
      ("obs.flight_overhead_pct", flight_pct);
      ("obs.share_pct", obs_share_pct);
      ("obs.words_share_pct", obs_words_share_pct);
      ( "obs.trace_events",
        match counts with Some c -> float_of_int (Array.fold_left ( + ) 0 c) | None -> 0.0 );
      ("scenario.decode_s", setup_ly.decode.s);
      ("scenario.run_s", if w.name = "churn-catalog" then plain_s else 0.0);
      ("recovery.route_deaths", cnt "route_dead");
      ("recovery.probes", cnt "route_probe");
      ("fault.events", cnt "link" +. cnt "loss" +. cnt "ctrl");
      ("trace.prof_overhead_x", if profs = [] then 0.0 else ratio (med_cpu `Prof) plain_s);
      ( "trace.count_overhead_x",
        if counts = None then 0.0 else ratio (med_cpu `Count) plain_s );
    ]
  in
  let metrics = List.map (fun (n, v) -> (n, v, unit_of n)) values in
  (* Traced digests must equal the untraced reference (checked unit by
     unit above); report the pass digests side by side too. *)
  let traced_digests =
    List.sort_uniq compare
      (Hashtbl.fold (fun _ ps acc -> List.map (fun (_, p) -> pass_digest p) ps @ acc) passes [])
  in
  let digest = pass_digest reference in
  let digests_match = traced_digests = [ digest ] in
  let buf = Buffer.create 4096 in
  let pr fmt = Printf.bprintf buf fmt in
  pr "workload %s seed %d seconds %g trace 1\n" w.name seed seconds;
  pr "ambient %s\n" ambient;
  pr "untraced pass %.6f s host CPU (median); rounds %d\n" plain_s
    (List.length (of_mode `Plain));
  pr "digest untraced %s\n" digest;
  pr "digest traced   %s (%s)\n"
    (String.concat "," traced_digests)
    (if digests_match then "match" else "MISMATCH");
  pr "\n%-30s %16s  %s\n" "layer metric" "value" "unit";
  List.iter (fun (n, v, u) -> pr "%-30s %16.6g  %s\n" n v u) metrics;
  if profs <> [] then begin
    pr "\nengine profile (median of %d prof passes; wall clock, Obs.Prof)\n"
      (List.length profs);
    pr "%-12s %12s %8s %14s %10s\n" "category" "self_s" "share%" "minor_words" "events";
    List.iter
      (fun c ->
        if self_s c > 0.0 then
          pr "%-12s %12.6f %8.2f %14.0f %10.0f\n" c (self_s c) (share c) (prof_words c)
            (prof_events c))
      cats;
    pr
      "note: Obs.Prof reads the clock and the minor-word counter twice per event;\n\
       that fixed cost inflates the shares of the cheap, frequent categories\n\
       (mac_phy, traffic, scheduler) against the controller.\n"
  end;
  if lys <> [] || setup_ly.routing.calls > 0 || setup_ly.decode.calls > 0 then begin
    pr "\nflow-level layers (CPU s; traced set-up + median layered pass)\n";
    List.iter
      (fun (n, pick) ->
        let setup = (pick setup_ly).s in
        pr "%-10s setup %10.6f  total %10.6f  calls %6.0f\n" n setup (layer pick)
          (layer_calls pick))
      [
        ("topology", fun l -> l.topology); ("routing", fun l -> l.routing);
        ("control", fun l -> l.control); ("lp", fun l -> l.lp);
        ("fluid", fun l -> l.fluid); ("decode", fun l -> l.decode);
      ]
  end;
  let v n = List.assoc n values in
  let top xs = List.fold_left (fun (bn, bv) (n, x) -> if x > bv then (n, x) else (bn, bv)) ("none", 0.0) xs in
  let dominant =
    if profs <> [] then begin
      let n, x = top (List.map (fun c -> (c, share c)) cats) in
      let tcp_events = 100.0 *. v "engine.tcp.events" /. v "engine.events" in
      Printf.sprintf "%s (%.1f%% of engine self time); tcp events %.1f%% of engine events" n x
        tcp_events
    end
    else if lys <> [] then begin
      let flow_layers =
        [ ("lp", v "lp.self_s"); ("control", v "control.solve_s"); ("routing", v "routing.self_s");
          ("topology", v "topology.self_s"); ("baselines", v "baselines.fluid_s") ]
      in
      let total = List.fold_left (fun a (_, x) -> a +. x) 0.0 flow_layers in
      let n, x = top flow_layers in
      Printf.sprintf "%s (%.1f%% of flow-level layer time)" n (100.0 *. x /. total)
    end
    else
      Printf.sprintf
        "observation (at least %.1f%% of minor words and %.1f%% of CPU of a pass; \
         Scenario.run takes no ~prof, so the engine's own layers are not split)"
        obs_words_share_pct obs_share_pct
  in
  pr "\ndominant layer: %s\n" dominant;
  pr "\n%-10s %6s %12s %14s\n" "pass" "n" "cpu_s" "minor_words";
  List.iter
    (fun m ->
      let ps = List.map snd (of_mode m) in
      let name =
        match m with
        | `Plain -> "plain" | `Bare -> "bare" | `Prof -> "prof" | `Count -> "count"
        | `Recorder -> "recorder" | `Flight -> "flight" | `Layers -> "layers"
      in
      pr "%-10s %6d %12.6f %14.0f\n" name (List.length ps)
        (median (List.map (fun p -> p.cpu_s) ps))
        (median (List.map (fun p -> p.words) ps)))
    modes;
  pr "\ntrace overhead: prof pass %.3fx, counting pass %.3fx of the untraced pass\n"
    (List.assoc "trace.prof_overhead_x" values)
    (List.assoc "trace.count_overhead_x" values);
  let table = Buffer.contents buf in
  let path = write_file (Printf.sprintf "%s-seed%d.layers.txt" w.name seed) table in
  print_string table;
  Printf.printf "written %s\n" path;
  let correct = tally.failed = 0 && digests_match in
  print_endline (final_line ~correct tally metrics)

(* ------------------------------------------------------------------ *)
(* Command line and the ambient-environment guard                       *)

(* Variables that attach checkers or recorders inside Engine.run: a
   run under them measures a different program, so it is refused. *)
let refused_env = [ "EMPOWER_CHECK"; "EMPOWER_METRICS"; "EMPOWER_FLIGHT" ]

(* Variables the benchmark does not consult (it never calls Exec.map
   nor scales run counts) or that only tune the runtime: recorded in
   the output. *)
let recorded_env =
  [ "EMPOWER_JOBS"; "EMPOWER_RUNS"; "EMPOWER_FLIGHT_DUMP"; "EMPOWER_PROGRESS"; "OCAMLRUNPARAM" ]

let env_set v = match Sys.getenv_opt v with None | Some "" -> false | Some _ -> true

let usage () =
  prerr_endline
    "usage: bench.exe --workload testbed-udp|testbed-tcp|paper-flow|churn-catalog \
     --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = parse [] args in
  (match List.assoc_opt "lp-table" kv with
  | Some path ->
    write_lp_table (testbed_net None) path;
    exit 0
  | None -> ());
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int_arg k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let name = get "workload" and seed = int_arg "seed" and seconds = int_arg "seconds" in
  let trace = int_arg "trace" in
  let w =
    match List.find_opt (fun w -> w.name = name) workloads with
    | Some w -> w
    | None -> usage ()
  in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  (match List.filter env_set refused_env with
  | [] -> ()
  | vs ->
    Printf.eprintf "perfbench: refusing to measure with %s set; unset it and rerun\n"
      (String.concat ", " vs);
    exit 2);
  let ambient =
    match List.filter env_set recorded_env with
    | [] -> "none"
    | vs -> String.concat " " (List.map (fun v -> v ^ "=" ^ Sys.getenv v) vs)
  in
  let seconds = float_of_int seconds in
  if w.engine then ignore (Lazy.force lp_table);
  if trace = 0 then end_to_end w ~seed ~seconds ~ambient
  else traced w ~seed ~seconds ~ambient
