(** Unit conventions and conversions.

    Throughout the repository, capacities and rates are in Mbit/s
    (as in the paper's figures), time in seconds, distances in
    meters, data sizes in bytes. This module centralizes the few
    conversions the simulator needs. *)

val tx_time : capacity_mbps:float -> bytes:int -> float
(** Seconds needed to transmit [bytes] on a link of the given
    capacity. Requires a strictly positive capacity. *)
