(** A minimal IEEE 1905.1 abstraction-layer entity.

    Each node runs an AL identified by an AL MAC address. The AL
    answers topology queries with a device-information TLV (its
    interfaces and their media types) plus one link-metric TLV per
    egress link, and absorbs other devices' responses into a topology
    database from which the hybrid multigraph can be reconstructed —
    the 1905.1-standard path to the same knowledge EMPoWER's own
    LSAs provide ("the IEEE 1905.1 standard ... provides an
    abstraction layer without specifying routing or load-balancing
    algorithms"; EMPoWER supplies those on top). *)

type t

val create : node:int -> techs:Technology.t array -> t
(** The AL of one node. Interface MACs are derived deterministically
    from (node, technology). *)

val topology_response :
  t -> Multigraph.t -> message_id:int -> Cmdu.t
(** The CMDU this AL sends in response to a topology query, given its
    current view of its own links: device information + one
    link-metric TLV per usable egress link. *)

val handle : t -> Cmdu.t -> unit
(** Absorb a received CMDU (topology / link-metric responses and
    notifications). Messages with a lower id than already seen from
    the same AL are ignored; unknown TLVs are skipped. *)

val known_devices : t -> int
(** Number of distinct remote ALs heard from. *)

val graph : t -> n_nodes:int -> Multigraph.t
(** Reconstruct the multigraph from the collected link metrics
    (bidirectional estimates averaged; foreign/garbled MACs are
    ignored). *)

val node_of_mac : string -> (int * int) option
(** Inverse of {!Tlv.mac_of_node}: [(node, tech)] when the MAC is one
    of ours (02:19:05 prefix). *)
