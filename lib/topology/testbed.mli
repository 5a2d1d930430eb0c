(** A synthetic stand-in for the paper's 22-node office testbed.

    The real testbed (Section 6.1, Figure 8) is one floor of a
    65 x 40 m office building: 22 APU1D nodes, each with two WiFi
    interfaces (Atheros AR9280) and a HomePlug AV PLC interface
    (QCA7420). We reproduce the floorplan as 22 fixed node positions
    with the same extent and roughly the same left/center/right
    clustering as Figure 8; capacities are sampled from the fitted
    per-medium distributions of {!Capacity}. All nodes are dual
    (every testbed box has all interfaces) and share one electrical
    distribution network, as the authors measured usable PLC links
    across the whole floor.

    Node ids here are 0-based: paper "Node k" is id [k-1]. *)

val n_nodes : int
(** 22. *)

val positions : Geometry.point array
(** The fixed floorplan, indexed by 0-based node id. *)

val generate : Rng.t -> Builder.instance
(** Sample link capacities for the fixed floorplan. Different seeds
    model different measurement campaigns (capacities vary over time);
    positions never change. *)

val node : int -> int
(** [node k] converts a 1-based paper node number to the 0-based id.
    Raises [Invalid_argument] outside [1..22]. *)
