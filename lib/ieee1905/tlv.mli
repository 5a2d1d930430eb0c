(** IEEE 1905.1 TLVs (type-length-value elements).

    The 1905.1 standard [2] — the paper's "abstraction layer between
    the data link and network layers" — carries all its control
    information as TLVs inside CMDUs. We implement the subset that
    topology discovery and link metrics need:

    {v
    type (1 byte) | length (2 bytes, big-endian) | value
    v}

    - [End_of_message] (0x00) terminates every CMDU;
    - [Al_mac_address] (0x01) identifies the abstraction-layer entity;
    - [Mac_address] (0x02) identifies one interface;
    - [Device_information] (0x03) lists a device's interfaces with
      their 1905.1 media types (802.11, 1901, Ethernet);
    - [Link_metric] (0x09/0x0a, transmitter/receiver form folded into
      one constructor) reports per-link throughput capacity, which is
      exactly what EMPoWER's routing consumes.

    Unknown TLV types survive a decode/encode round trip as
    [Unknown] (the standard requires forwarding them untouched). *)

type media_type =
  | Ethernet            (** 0x0000 *)
  | Wifi of int         (** 0x0100 + variant; the variant encodes the channel here *)
  | Plc_1901            (** 0x0200 *)

type iface = {
  mac : string;             (** 6 raw bytes *)
  media : media_type;
}

type link_metric = {
  local_mac : string;       (** 6 bytes: transmitting interface *)
  remote_mac : string;      (** 6 bytes: receiving interface *)
  capacity_mbps : float;    (** stored on the wire in 0.01 Mbps units *)
}

type t =
  | End_of_message
  | Al_mac_address of string              (** 6 bytes *)
  | Mac_address of string                 (** 6 bytes *)
  | Device_information of string * iface list  (** AL MAC + interfaces *)
  | Link_metric of link_metric
  | Unknown of int * string               (** type, raw value *)

val encode : t -> bytes
(** Serialize one TLV. Raises [Invalid_argument] on malformed MACs
    (not 6 bytes) or out-of-range values. *)

val decode : bytes -> pos:int -> t * int
(** Decode the TLV starting at [pos]; returns it and the position
    after it. Raises [Invalid_argument] on truncation. *)

val encode_all : t list -> bytes
(** Concatenate TLVs and append [End_of_message]. *)

val decode_all : bytes -> pos:int -> t list
(** Decode until (and excluding) [End_of_message]. *)

val mac_of_node : node:int -> tech:int -> string
(** A deterministic locally-administered MAC for a simulated
    interface — 02:19:05:tech:hi:lo. *)
