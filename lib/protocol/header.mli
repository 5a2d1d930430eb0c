(** The fixed 20-byte EMPoWER layer-2.5 header (Section 6.1).

    Wire layout (big-endian):
    {v
    bytes  0..3   sequence number (uint32)
    bytes  4..7   q_r accumulator, unsigned fixed-point Q12.20
    bytes  8..19  source route: 6 x 2-byte ingress-interface hashes,
                  zero-padded beyond the route length
    v}

    The sequence number orders packets of one flow across routes (the
    destination reorders on it); q_r is the running congestion price
    of the route so far — every forwarding node adds
    [d_l * Σ_{i ∈ I_l} γ_i] before transmitting on link l — and is
    echoed to the source in acknowledgements. *)

type t = {
  seq : int;          (** sequence number, [0, 2^32) *)
  qr : float;         (** accumulated route cost, >= 0 *)
  route : Route_codec.route;
}

val size : int
(** 20 bytes. *)

val qr_resolution : float
(** Smallest representable q_r increment (2^-20). *)

val qr_max : float
(** Largest representable q_r (just under 4096); larger values
    saturate on encode. *)

val make : seq:int -> qr:float -> route:Route_codec.route -> t
(** Build a header. Raises [Invalid_argument] on a negative or
    overflowing sequence number, negative q_r, or an over-long
    route. *)

val add_price : t -> float -> t
(** [add_price h p] accumulates a non-negative hop price into [qr]
    (the forwarding-time update), saturating at {!qr_max}. *)

val encode : t -> bytes
(** Serialize to exactly 20 bytes. q_r is rounded to the wire
    resolution and saturates at {!qr_max}. *)

val decode : bytes -> t
(** Parse a 20-byte header. Raises [Invalid_argument] on wrong length
    or a route with a non-zero entry after a zero entry (malformed
    padding). *)
