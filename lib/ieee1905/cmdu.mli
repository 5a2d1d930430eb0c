(** IEEE 1905.1 CMDUs (control message data units).

    The framing every 1905.1 control message uses:

    {v
    byte 0     message version (0x00)
    byte 1     reserved (0x00)
    bytes 2-3  message type (big-endian)
    bytes 4-5  message id
    byte 6     fragment id
    byte 7     flags: bit7 = last fragment, bit6 = relay indicator
    then TLVs, terminated by end-of-message
    v}

    Message types implemented: topology discovery / notification /
    query / response and link-metric query / response — the parts an
    EMPoWER node needs to learn the hybrid topology through the
    standard instead of (or alongside) its own LSAs. *)

type message_type =
  | Topology_discovery   (** 0x0000 *)
  | Topology_notification (** 0x0001 *)
  | Topology_query       (** 0x0002 *)
  | Topology_response    (** 0x0003 *)
  | Link_metric_query    (** 0x0005 *)
  | Link_metric_response (** 0x0006 *)

type t = {
  message_type : message_type;
  message_id : int;          (** 16-bit, per-sender sequence *)
  fragment : int;            (** 8-bit *)
  last_fragment : bool;
  relay : bool;              (** relayed multicast indicator *)
  tlvs : Tlv.t list;         (** payload, without the end TLV *)
}

val make : ?relay:bool -> message_type -> message_id:int -> Tlv.t list -> t
(** Build an unfragmented CMDU (fragment 0, the last one);
    [Invalid_argument] on an out-of-range id. *)

val encode : t -> bytes
(** Serialize header + TLVs + end-of-message. *)

val decode : bytes -> t
(** Parse; [Invalid_argument] on truncation, bad version, or unknown
    message type. *)

val message_type_code : message_type -> int
(** The 16-bit wire code. *)
