(** Link-capacity samplers fitted to the paper's testbed measurements.

    The simulations of Section 5 sample WiFi and PLC link capacities
    "from a distribution close to the capacity distributions measured
    on our real testbed" (reported in the tech report and in the
    Electri-Fi measurement study [38]). The salient, behaviour-carrying
    properties we reproduce are:

    - both mediums peak around 100 Mbps (comparable aggregate capacity,
      Section 6.1);
    - WiFi capacity decays steeply with distance and is typically the
      better medium at short range;
    - PLC capacity is only weakly correlated with geometric distance
      (wiring topology dominates), giving it a fat mid-range tail and
      making it the better medium for many long-range pairs — this is
      the medium-diversity effect behind the coverage gains;
    - WiFi rates quantize to 802.11n MCS steps; PLC rates (bit-loading)
      are effectively continuous.

    Samplers are deterministic given the {!Rng.t} stream. *)

val wifi_capacity : Rng.t -> distance_m:float -> float
(** Capacity (Mbit/s) of a WiFi link at the given distance; 0 beyond
    the connection radius. Quantized to MCS-like steps. *)

val plc_capacity : Rng.t -> distance_m:float -> float
(** Capacity (Mbit/s) of a PLC link at the given distance (same
    electrical panel assumed); 0 beyond the connection radius. *)

val correlated_wifi_pair : Rng.t -> distance_m:float -> float * float
(** Capacities of the *same* node pair on two orthogonal WiFi channels.
    The paper notes that fading and channel characteristics have
    similar impact in all channels, so link capacities in different
    channels are correlated; we draw a common large-scale term and
    small independent per-channel noise. The multi-channel WiFi
    evaluations (Section 5.1) additionally assume equal bandwidth,
    hence "the same link capacities": use {!equal_wifi_pair} for the
    paper's exact setting. *)

val equal_wifi_pair : Rng.t -> distance_m:float -> float * float
(** One WiFi draw replicated on both channels — the paper's
    multi-channel WiFi assumption (identical capacities on both
    channels). *)

val mcs_steps : float array
(** The 802.11n-like rate ladder (Mbit/s) used for WiFi quantization.
    Exposed for tests. *)
