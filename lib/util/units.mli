(** Unit conventions and conversions.

    Throughout the repository, capacities and rates are in Mbit/s
    (as in the paper's figures), time in seconds, distances in
    meters, data sizes in bytes. This module centralizes the few
    conversions the simulator needs. *)

val mbps_to_bytes_per_s : float -> float
(** Megabits per second to bytes per second. *)

val bytes_per_s_to_mbps : float -> float
(** Bytes per second to megabits per second. *)

val bytes_to_mbit : float -> float
(** Bytes to megabits. *)

val mbit_to_bytes : float -> float
(** Megabits to bytes. *)

val tx_time : capacity_mbps:float -> bytes:int -> float
(** Seconds needed to transmit [bytes] on a link of the given
    capacity. Requires a strictly positive capacity. *)

val kib : int -> int
(** [kib n] is n KiB in bytes. *)

val mib : int -> int
(** [mib n] is n MiB in bytes. *)
