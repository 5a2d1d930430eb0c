(** EMPoWER: multipath routing + congestion control for hybrid
    networks, at layer 2.5.

    This is the library facade: build a {!network} (from a topology
    generator, or from explicit links), let EMPoWER {!plan} the
    combination of routes for each flow, {!allocate} utility-optimal
    rates on them with the distributed congestion controller, or
    {!simulate} the whole datapath packet by packet (20-byte headers,
    source routing, CSMA MAC, 100 ms ACKs, reordering).

    A three-line quickstart (the paper's Figure 1 network):
    {[
      let net = Empower.of_edges ~n_nodes:3 ~n_techs:2
          [ (0, 1, 0, 15.0); (1, 2, 0, 30.0); (0, 1, 1, 10.0) ] in
      let alloc = Empower.allocate net ~flows:[ (0, 2) ] in
      (* alloc.flow_rates.(0) ~ 16.7 Mbps: 10 on PLC+WiFi, 6.7 on WiFi *)
    ]} *)

type network = {
  g : Multigraph.t;
  dom : Domain.t;
}
(** A hybrid network: the multigraph and its interference domains. *)

val of_instance : Builder.instance -> Builder.scenario -> network
(** Project a generated topology instance (residential, enterprise,
    testbed) onto a technology scenario. *)

val of_edges :
  n_nodes:int -> n_techs:int -> (int * int * int * float) list -> network
(** Build directly from edges [(u, v, tech, capacity_mbps)], with one
    collision domain per technology (right for home-scale examples);
    geometry-based interference comes via {!of_instance}. *)

type plan = {
  src : int;
  dst : int;
  combination : Multipath.combination;
}
(** The routes EMPoWER selected for one flow, with their rates. *)

val plan : network -> src:int -> dst:int -> plan
(** Run the Section 3 multipath procedure (n = 5, CSC on). *)

type allocation = {
  plans : plan array;
  flow_rates : float array;     (** final per-flow rates (Mbit/s) *)
  route_rates : float array array; (** per flow, per route *)
  cc : Cc_result.t;             (** full controller output *)
}

val allocate :
  ?delta:float -> ?slots:int -> network -> flows:(int * int) list -> allocation
(** Routing then congestion control: {!plan} each flow, run the
    multipath controller (Section 4.3) on the selected routes starting
    from the routing-estimated rates, and report the proportionally
    fair allocation (defaults: [delta = 0], 3000 slots). Flows without
    connectivity get rate 0 and an empty plan. *)

val simulate :
  ?config:Engine.config ->
  ?invariants:Invariants.t ->
  ?seed:int ->
  network ->
  flows:Engine.flow_spec list ->
  duration:float ->
  Engine.result
(** Packet-level simulation of the full stack (see {!Engine}), with
    no faults and no trace sink ({!Engine.run} takes both).
    [?invariants] threads a runtime invariant checker through the run
    (see {!Invariants}); the [EMPOWER_CHECK] environment variable
    enables one implicitly. *)

val flow_specs_of_allocation : allocation -> Engine.flow_spec list
(** Turn an allocation into saturated UDP engine flow specs: routes
    from the plans, initial injection at the planned rates. Flows with
    no route are omitted. *)
