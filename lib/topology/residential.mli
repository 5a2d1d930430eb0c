(** The paper's residential topology (Section 5.1).

    A 50 x 30 m rectangle with 10 nodes dropped uniformly at random:
    5 dual PLC/WiFi nodes (gateways, extenders, desktops, TVs) and 5
    single-channel WiFi nodes (phones, laptops). One electrical panel
    feeds the whole home. *)

val generate : Rng.t -> Builder.instance
(** One random residential draw (positions + capacities). *)
