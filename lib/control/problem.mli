(** The congestion-control problem instance (Section 4.1).

    Routes are preselected (by [empower_routing]); the controller only
    decides the per-route rates x_r. A problem bundles the network
    view, the interference domains, the airtime costs [d_l] the
    controller believes (normally from capacity *estimates*, not
    ground truth), the route set grouped into flows, the constraint
    margin δ of (3), and any external (non-EMPoWER) airtime the nodes
    measure on each link's medium. *)

type t = {
  g : Multigraph.t;
  dom : Domain.t;
  d : float array;  (** airtime per Mbit on each link (1/capacity) *)
  routes : Paths.t array;  (** all routes, across flows *)
  flow_of : int array;     (** [flow_of.(r)] is the flow owning route [r] *)
  flow_routes : int list array;  (** route ids per flow *)
  delta : float;
  external_airtime : float array;  (** per link, in [0,1) *)
}

val make :
  ?delta:float ->
  ?d:float array ->
  ?external_airtime:float array ->
  Multigraph.t ->
  Domain.t ->
  flows:Paths.t list list ->
  t
(** [make g dom ~flows] with [flows] the per-flow route lists.
    Defaults: [delta = 0] (the paper's simulations; testbed UDP runs
    use 0.05 and TCP runs 0.3), [d] from the graph's capacities,
    no external airtime. Flows with no
    route are allowed (they simply get rate 0). Raises
    [Invalid_argument] if [delta] is outside [0, 1) or any route is
    unusable (a hop with zero capacity and no [?d] override). *)

val n_routes : t -> int
(** Total number of routes. *)

val n_flows : t -> int
(** Number of flows. *)

val flow_rate : t -> float array -> int -> float
(** [flow_rate t x f] = Σ of [x_r] over the routes of flow [f]. *)

val flow_rates : t -> float array -> float array
(** All flow rates. *)

val airtime_demand : t -> float array -> int -> float
(** The airtime demand [d_l · Σ_{r: l ∈ r} x_r] of link [l] under
    route rates [x], plus the link's external airtime. A link no route
    uses contributes exactly its external airtime, also when
    [d_l = infinity]. *)

val feasible : ?slack:float -> t -> float array -> bool
(** Whether rates [x] satisfy the conservative interference
    constraint (3): [Σ_{l' ∈ I_l} demand(l') <= 1 - delta + slack]
    for every link [l] (default [slack = 1e-9]). A nan sum counts as
    a violation. *)
