(** Link-capacity estimation, the only technology-dependent feature.

    Section 6.1: capacities are estimated from modulation information
    in frame headers — the MCS index for 802.11n and the bit-loading
    estimate (BLE) for HomePlug AV. These estimates are extremely
    accurate when traffic flows at a high rate; when a link is idle,
    low-rate probing (~1 kB/s) gives a precise-but-not-perfect
    estimate with a reaction time of a few seconds.

    We model exactly that accuracy profile: an estimator observes the
    ground-truth capacity through mode-dependent multiplicative noise
    and a mode-dependent reaction delay, which the congestion
    controller and routing consume instead of the truth. *)

type mode =
  | Probing      (** idle link, ~1 kB/s probes: small error, slow reaction *)
  | Active_traffic (** saturated link: near-exact, fast reaction *)

type t
(** Estimator state for one link. *)

val create : ?mode:mode -> Rng.t -> initial_capacity:float -> t
(** Fresh estimator initialized from a first observation of the given
    true capacity (default mode {!Probing}). *)

val mode : t -> mode
(** Current observation mode. *)

val set_mode : t -> mode -> unit
(** Switch between probing and active-traffic estimation. *)

val observe : t -> now:float -> true_capacity:float -> unit
(** Feed the current ground truth at time [now] (seconds). The
    estimate tracks changes with the mode's reaction time constant. *)

val reset : t -> now:float -> capacity:float -> unit
(** Discard the tracked state and restart from a fresh (noisy)
    observation of [capacity] at time [now]. Used by the recovery
    subsystem when a link revives: the estimate tracked toward zero
    while the link was dead, and letting it re-converge exponentially
    would misprice the healed link for several control periods. *)

val estimate : t -> float
(** Current capacity estimate (Mbit/s, >= 0). *)

val relative_error : mode -> float
(** The std of the multiplicative observation noise for a mode
    (exposed for tests): ~5% when probing, ~1% under traffic. *)

val reaction_time : mode -> float
(** Exponential tracking time constant (s): a few seconds when
    probing, ~0.1 s under traffic (the 100 ms ACK period). *)
