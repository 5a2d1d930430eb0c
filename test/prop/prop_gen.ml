(* Deterministic random-case generators for the property suite.

   Every generator is a pure function of an integer seed through
   [Rng]: a QCheck counterexample therefore consists of one printed
   integer, and replaying it rebuilds the exact topology, interference
   structure and flow set (see README "Testing & invariants").

   Topologies are random connected hybrid multigraphs: a random
   spanning tree guarantees connectivity, extra edges (possibly
   parallel, on a second technology) add the multipath structure the
   oracles exercise. Interference is drawn from the two in-tree
   models: the single-collision-domain-per-technology limit, or a
   random symmetric per-technology predicate thickened with the
   mandatory peer/self pairs. *)

type case = {
  seed : int;
  g : Multigraph.t;
  dom : Domain.t;
  src : int;
  dst : int;
}

let capacity rng =
  (* Spread over the paper's PLC/WiFi range, away from zero. *)
  Rng.uniform rng 5.0 100.0

(* A connected multigraph on [n] nodes and [n_techs] technologies. *)
let random_graph rng ~n ~n_techs ~extra =
  let edges = ref [] in
  (* Random spanning tree: node i attaches to a uniform predecessor. *)
  for v = 1 to n - 1 do
    let u = Rng.int rng v in
    edges := (u, v, Rng.int rng n_techs, capacity rng) :: !edges
  done;
  (* Extra edges, rejecting self-loops and exact duplicates (same
     unordered pair + technology, which Multigraph.create forbids). *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (u, v, k, _) -> Hashtbl.replace seen (min u v, max u v, k) ())
    !edges;
  let attempts = ref 0 in
  let added = ref 0 in
  while !added < extra && !attempts < 50 * (extra + 1) do
    incr attempts;
    let u = Rng.int rng n and v = Rng.int rng n in
    let k = Rng.int rng n_techs in
    let key = (min u v, max u v, k) in
    if u <> v && not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      edges := (u, v, k, capacity rng) :: !edges;
      incr added
    end
  done;
  Multigraph.create ~n_nodes:n ~n_techs ~edges:(List.rev !edges)

let random_domain rng g =
  if Rng.bool rng then Domain.single_domain_per_tech g
  else begin
    (* Random symmetric same-technology interference: precompute the
       matrix so the predicate handed to Domain.create is pure. *)
    let m = Multigraph.num_links g in
    let mat = Array.make_matrix m m false in
    let links = Multigraph.links g in
    let p = Rng.uniform rng 0.3 0.9 in
    for a = 0 to m - 1 do
      for b = a + 1 to m - 1 do
        let la = links.(a) and lb = links.(b) in
        let touches =
          la.Multigraph.src = lb.Multigraph.src
          || la.Multigraph.src = lb.Multigraph.dst
          || la.Multigraph.dst = lb.Multigraph.src
          || la.Multigraph.dst = lb.Multigraph.dst
        in
        if la.Multigraph.tech = lb.Multigraph.tech
           && (touches || Rng.float rng < p)
        then begin
          mat.(a).(b) <- true;
          mat.(b).(a) <- true
        end
      done
    done;
    Domain.create g ~interferes:(fun a b -> mat.(a).(b))
  end

let case_of_seed seed =
  let rng = Rng.create (0x9E3779B9 + seed) in
  let n = 3 + Rng.int rng 6 in
  let n_techs = 1 + Rng.int rng 2 in
  let extra = Rng.int rng (n + 2) in
  let g = random_graph rng ~n ~n_techs ~extra in
  let dom = random_domain rng g in
  let src = Rng.int rng n in
  let dst = (src + 1 + Rng.int rng (n - 1)) mod n in
  { seed; g; dom; src; dst }

let saturated_flow_of_case c =
  let comb = Multipath.find c.g c.dom ~src:c.src ~dst:c.dst in
  match Multipath.routes comb with
  | [] -> None
  | routes ->
    Some
      ( comb,
        {
          Engine.src = c.src;
          dst = c.dst;
          routes;
          init_rates = List.map snd comb.Multipath.paths;
          workload = Workload.Saturated;
          transport = Engine.Udp;
          tcp_params = None;
          start_time = 0.0;
          stop_time = None;
        } )

(* Panel interference, the PLC model of Domain.standard: each node
   sits under one of 1-3 panels per technology, an edge under its
   lower endpoint's panel, and same-technology links interfere when
   their edges share a panel. Every panel's links are twins (one I_l),
   so routes cross several hops of one twin class. *)
let panel_domain rng g =
  let n = Multigraph.n_nodes g in
  let panels = Array.make_matrix (Multigraph.n_techs g) n 0 in
  Array.iter
    (fun row ->
      let k = 1 + Rng.int rng 3 in
      for v = 0 to n - 1 do
        row.(v) <- Rng.int rng k
      done)
    panels;
  let links = Multigraph.links g in
  let panel l =
    let lk = links.(l) in
    panels.(lk.Multigraph.tech).(min lk.Multigraph.src lk.Multigraph.dst)
  in
  Domain.create g ~interferes:(fun a b ->
      links.(a).Multigraph.tech = links.(b).Multigraph.tech && panel a = panel b)

(* Price cases: 1-3 flows routed on a random case (under panel
   interference one time in three), with external airtime on about a
   third of the links no route uses (external-only carriers), a random
   margin delta, a fixed dual step and fresh random route rates for
   every slot. *)
type price_case = {
  problem : Problem.t;
  alpha : float;
  slot_rates : float array array;  (** per slot, per route *)
}

let price_case_of_seed ~slots seed =
  let c = case_of_seed seed in
  let rng = Rng.create (0x6A09E667 + seed) in
  let dom = if Rng.int rng 3 = 0 then panel_domain rng c.g else c.dom in
  let n = Multigraph.n_nodes c.g in
  let pair () =
    let src = Rng.int rng n in
    (src, (src + 1 + Rng.int rng (n - 1)) mod n)
  in
  let pairs = (c.src, c.dst) :: List.init (Rng.int rng 3) (fun _ -> pair ()) in
  let flows =
    List.map
      (fun (src, dst) -> Multipath.routes (Multipath.find c.g dom ~src ~dst))
      pairs
  in
  let n_links = Multigraph.num_links c.g in
  let on_route = Array.make n_links false in
  List.iter
    (List.iter (fun p -> List.iter (fun l -> on_route.(l) <- true) p.Paths.links))
    flows;
  let external_airtime =
    Array.init n_links (fun l ->
        if (not on_route.(l)) && Rng.float rng < 0.3 then Rng.uniform rng 0.02 0.4
        else 0.0)
  in
  let delta = if Rng.bool rng then 0.0 else Rng.uniform rng 0.05 0.3 in
  let problem = Problem.make ~delta ~external_airtime c.g dom ~flows in
  let alpha = Rng.uniform rng 0.01 0.5 in
  let slot_rates =
    Array.init slots (fun _ ->
        Array.init (Problem.n_routes problem) (fun _ -> Rng.uniform rng 0.0 30.0))
  in
  { problem; alpha; slot_rates }

(* Lemma 1 cases: k disjoint saturated links sharing one collision
   domain; the closed form predicts each delivers (Σ_l d_l)^-1. *)
type lemma1_case = {
  l1_seed : int;
  l1_g : Multigraph.t;
  l1_dom : Domain.t;
  caps : float array;
}

let lemma1_case_of_seed seed =
  let rng = Rng.create (0x51ED2701 + seed) in
  let k = 2 + Rng.int rng 4 in
  let caps = Array.init k (fun _ -> Rng.uniform rng 8.0 60.0) in
  let edges =
    List.init k (fun i -> (2 * i, (2 * i) + 1, 0, caps.(i)))
  in
  let g = Multigraph.create ~n_nodes:(2 * k) ~n_techs:1 ~edges in
  { l1_seed = seed; l1_g = g; l1_dom = Domain.single_domain_per_tech g; caps }

let lemma1_flows c =
  Array.to_list
    (Array.mapi
       (fun i _ ->
         {
           Engine.src = 2 * i;
           dst = (2 * i) + 1;
           (* edge i materializes directed links 2i (u->v) and 2i+1 *)
           routes = [ Paths.of_links c.l1_g [ 2 * i ] ];
           (* overload: well above any link's fair share *)
           init_rates = [ 100.0 ];
           workload = Workload.Saturated;
           transport = Engine.Udp;
           tcp_params = None;
           start_time = 0.0;
           stop_time = None;
         })
       c.caps)

let goodput res i duration =
  float_of_int res.Engine.flows.(i).Engine.received_bytes *. 8e-6 /. duration

(* Chaos cases: a random fault plan for the case's graph, drawn from
   the same printed integer seed (replay with
   [chaos_plan_of_case (case_of_seed <seed>)]). *)
let chaos_plan_of_case ?intensity ?clear_by c ~duration =
  Fault.Gen.plan ?intensity ?clear_by
    (Rng.create (0x1F123BB5 + c.seed))
    c.g ~duration

(* Non-severing plans for the legacy recovery property: shallow
   capacity degradations, loss windows and control faults, but never
   capacity 0 and never a deep dip. The plain congestion controller
   has a measured price hysteresis: while offered load exceeds a
   link's (estimated) capacity the price gamma grows with the
   overload, and after the fault clears it drains at a fixed slow
   rate (~0.03/s), after which the rate itself climbs back only
   gradually. Without the recovery subsystem a severed route takes
   tens of seconds to recover this way, and even a sub-second dip to
   30% of capacity leaves a price overhang that outlives a 12 s run.
   "Back within 10% shortly after clearing" is therefore a theorem in
   two regimes: for faults whose overload x duration is small
   (degradations here stay above 70% of capacity and last at most
   ~1.2 s, so the overhang drains well inside the tail window), and —
   under the [Engine.Heal] dead-route policy — for full severances, whose
   stale prices are reset rather than drained (see
   [severing_plan_of_case] and the severing properties). *)
let degrading_plan_of_case c ~clear_by =
  let rng = Rng.create (0x2E7F9A11 + c.seed) in
  let n_links = Multigraph.num_links c.g in
  let window ?(max_len = infinity) () =
    let t0 = Rng.uniform rng 0.2 (clear_by -. 0.3) in
    let t1 =
      Float.min
        (Rng.uniform rng (t0 +. 0.1) (clear_by -. 0.05))
        (t0 +. max_len)
    in
    (t0, t1)
  in
  List.concat
    (List.init
       (2 + Rng.int rng 3)
       (fun _ ->
         let kind = Rng.int rng 4 in
         match kind with
         | 0 ->
           let t0, t1 = window ~max_len:1.2 () in
           let l = Rng.int rng n_links in
           let cap = Multigraph.capacity c.g l in
           let frac = Rng.uniform rng 0.7 0.95 in
           [
             Fault.Capacity_set { at = t0; link = l; capacity = frac *. cap };
             Fault.Capacity_set { at = t1; link = l; capacity = cap };
           ]
         | 1 ->
           let t0, t1 = window () in
           let l = Rng.int rng n_links in
           [
             Fault.Loss_window
               { at = t0; until = t1; link = l; prob = Rng.uniform rng 0.05 0.3 };
           ]
         | 2 ->
           let t0, t1 = window () in
           [ Fault.Ctrl_drop { at = t0; until = t1; prob = Rng.uniform rng 0.1 0.5 } ]
         | _ ->
           let t0, t1 = window () in
           [
             Fault.Ctrl_delay
               { at = t0; until = t1; delay = Rng.uniform rng 0.02 0.15 };
           ]))

(* Severing plans for the self-healing recovery property: one node
   crash pinned to the flow's destination, so every route of the flow
   is down for the whole window — the worst case the recovery
   subsystem must bound. Distinct seed constant: the severing stream
   never collides with the other per-case plan streams. *)
let severing_plan_of_case ?clear_by c ~duration =
  Fault.Gen.plan ~intensity:Fault.Gen.Severing ?clear_by ~victim:c.dst
    (Rng.create (0x53F7A3C1 + c.seed))
    c.g ~duration

let mean_goodput_window res i lo hi =
  let pts =
    List.filter_map
      (fun (t, gp) -> if t > lo && t <= hi then Some gp else None)
      res.Engine.flows.(i).Engine.goodput_series
  in
  match pts with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 pts /. float_of_int (List.length pts)
