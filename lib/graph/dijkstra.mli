(** Shortest paths on the hybrid multigraph with channel-switching cost.

    This is the single-path procedure of Section 3.1. The link weight
    is [W(l) = d_l = 1/c_l] (the ETT-equivalent metric), and a
    channel-switching cost (CSC) is charged at every intermediate node
    [u]: [w_ns(u) = min over usable egress links of d_l] when the path
    keeps the same technology through [u], and [w_s(u) = 0] when it
    switches. This choice (derived in the paper from the optimal CSC
    under the isotonicity requirement) favours technology-alternating
    paths, mitigating intra-path interference.

    Dijkstra runs on the virtual graph of (node, incoming technology)
    states, which makes the CSC compatible with the algorithm exactly
    as in Yang et al. [44]. *)

type constraints
(** Links a search skips and nodes it may not enter (Yen's spur
    restrictions), marked in stamp arrays sized for one topology and
    valid for every view of it. Banning is one array write; {!reset}
    lifts every ban at once. *)

val constraints : Multigraph.t -> constraints
(** Fresh restrictions for [g]'s topology; they ban nothing. *)

val reset : constraints -> unit
(** Lift every ban. *)

val ban_link : constraints -> int -> unit
(** Skip this link id until the next {!reset}. *)

val ban_node : constraints -> int -> unit
(** Enter no link into this node until the next {!reset}. *)

val shortest_path :
  ?csc:bool ->
  ?constraints:constraints ->
  ?init_tech:int ->
  Multigraph.t ->
  src:int ->
  dst:int ->
  (Paths.t * float) option
(** [shortest_path g ~src ~dst] is the minimum-weight usable path and
    its weight, or [None] if [dst] is unreachable over links of
    strictly positive capacity. The search walks the view's flat
    arrays ({!Multigraph.flat}), relaxing each node's out-links in
    ascending id order. [?csc] (default [true]) disables the
    channel-switching cost when [false] (the paper sets CSC = 0 for
    single-technology WiFi scenarios). [?init_tech] states that the
    (virtual) hop into [src] used the given technology — used by Yen
    spur computations so the CSC at the spur node is charged
    correctly. Requires [src <> dst]. *)

val path_cost : ?csc:bool -> ?init_tech:int -> Multigraph.t -> Paths.t -> float
(** Weight of an explicit path under the same metric (sum of [d_l]
    plus CSC at intermediate nodes); [infinity] if any hop is
    unusable. *)

val wns : Multigraph.t -> int -> float
(** [wns g u]: the non-switching cost at node [u], i.e. the minimum
    [d_l] over usable egress links of [u]; [infinity] when [u] has no
    usable egress link. Each view computes it once per node
    ({!Multigraph.flat}). *)
