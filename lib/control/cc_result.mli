(** Controller run results and convergence measurement.

    One controller "slot" is the interval between two acknowledgements
    (100 ms on the testbed). A run records the per-slot flow-rate
    trace so experiments can measure convergence the way the paper
    does: the steady state is reached at the first slot from which
    every flow's rate stays within 1% of its final value. *)

type t = {
  rates : float array;        (** final per-route rates x_r (Mbit/s) *)
  flow_rates : float array;   (** final per-flow rates x_f *)
  slots : int;                (** slots executed *)
  trace : float array array;  (** [trace.(t)] = flow rates after slot t *)
}

val convergence_slot : t -> int option
(** First slot from which every flow rate remains within 1% relative
    error of its final value — with an absolute floor of 0.01 Mbps so
    zero-rate flows compare sensibly. [None] if the trace never
    settles (the run was too short). *)

val final_utility : Utility.t -> t -> float
(** [Σ_f U(x_f)] at the final allocation. *)
