(** The paper's enterprise topology (Section 5.1).

    A 100 x 60 m rectangle (company, hospital) with 20 nodes: 10 dual
    PLC/WiFi access points placed on distinct cells of a 10 x 10 m
    grid (matching the managed-WiFi density the authors observed in
    their building) and 10 single-channel WiFi clients dropped
    uniformly at random. The building has two electrical panels, each
    feeding one half of the floor ([x < 50] vs [x >= 50]); PLC links
    exist only within a panel. *)

val generate : Rng.t -> Builder.instance
(** One random enterprise draw. *)
