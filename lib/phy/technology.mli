(** Link-technology descriptors for the hybrid network.

    The paper's networks combine IEEE 802.11n WiFi (one or two
    non-interfering 40 MHz channels) and HomePlug AV (IEEE 1901) PLC.
    A technology here is one *medium*: links of the same technology
    contend for airtime (CSMA/CA in both standards), links of
    different technologies never interfere. Two WiFi channels are
    therefore two distinct technologies.

    Connection radii follow the paper's testbed measurements: 35 m
    for WiFi and 50 m for PLC (Section 5.1); PLC additionally requires
    both endpoints on the same electrical panel. *)

type medium =
  | Wifi of int  (** 802.11n on the given non-interfering channel (1 or 2) *)
  | Plc          (** HomePlug AV over the electrical wiring *)

type t = {
  index : int;          (** dense technology index used by the multigraph *)
  medium : medium;
  name : string;        (** short printable name, e.g. ["wifi1"], ["plc"] *)
  conn_radius_m : float; (** max distance for a usable link, meters *)
  max_capacity_mbps : float; (** peak link capacity on this medium *)
}

val wifi : index:int -> channel:int -> t
(** 802.11n technology descriptor (35 m radius, 100 Mbps peak). *)

val plc : index:int -> t
(** HomePlug AV descriptor (50 m radius, 100 Mbps peak). *)

val is_plc : t -> bool
(** [true] iff the medium is PLC. *)

val is_wifi : t -> bool
(** [true] iff the medium is a WiFi channel. *)

val hybrid : unit -> t list
(** The paper's hybrid PLC/WiFi set: WiFi channel 1 (index 0) and PLC
    (index 1). *)

val single_wifi : unit -> t list
(** Single-channel WiFi only (index 0). *)

val multi_wifi : unit -> t list
(** Two non-interfering WiFi channels (indexes 0 and 1) with equal
    bandwidth, as in the paper's MP-mWiFi comparisons. *)
