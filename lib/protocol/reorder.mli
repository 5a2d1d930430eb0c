(** Destination-side packet reordering across routes (Section 6.1).

    Packets of one flow arrive over several routes with a shared
    sequence-number space and must be released in order. EMPoWER uses
    no timeouts: a missing sequence number S is declared lost exactly
    when a packet with sequence number greater than S has been
    received on {e every} route of the flow (per-route delivery is
    FIFO, so nothing older can still arrive).

    The buffer is generic in the payload. The engine stores each
    frame's byte count, all its release callback reads, so a buffered
    frame holds no frame record: the engine returns the record to its
    frame pool right after the push. Buffered packets sit in a
    power-of-two ring indexed by sequence number, which
    doubles when a packet lands past its window; the steady state
    allocates nothing. As in the engine's [Fifo], a released slot
    keeps its payload until a later packet overwrites it, so a
    payload can stay reachable after its release (at most one per
    slot). *)

type 'a event =
  | Deliver of int * 'a  (** in-order release of (seq, payload) *)
  | Lost of int          (** seq declared lost, skipped *)

type 'a t
(** Reorder state for one flow. *)

val create : ?declare_losses:bool -> n_routes:int -> unit -> 'a t
(** A buffer expecting packets from [n_routes] routes (>= 1), sequence
    numbers starting at 0. With [declare_losses:false] (used under
    TCP, where the sender retransmits) gaps are never skipped: the
    buffer waits for the retransmission instead of emitting
    [Lost]. *)

val push : 'a t -> route:int -> seq:int -> 'a -> 'a event list
(** Accept a packet received on [route] and return the events it
    triggers, in release order. Duplicate or already-released
    sequence numbers are ignored (empty list). Raises
    [Invalid_argument] on a bad route index or negative seq. *)

val push_cb :
  'a t ->
  route:int ->
  seq:int ->
  'a ->
  deliver:(int -> 'a -> unit) ->
  lost:(int -> unit) ->
  unit
(** {!push} without the list: the events fire through the callbacks
    in release order — the engine's zero-allocation delivery path,
    which {!push} wraps. The in-order common case bypasses the ring
    entirely. *)

val pending : 'a t -> int
(** Number of buffered, not-yet-releasable packets. *)

val next_expected : 'a t -> int
(** The sequence number the buffer is waiting for. *)

(** Per-route delay equalization (Section 6.4): TCP suffers when one
    route is much faster than the other, because packets on the fast
    route time out while waiting for the slow route. The destination
    measures per-route one-way delays (EWMA) and holds fast-route
    packets back until the slow route's delay has elapsed. *)
module Equalizer : sig
  type t

  val create : n_routes:int -> t
  (** Equalizer with no delay estimates yet. *)

  val observe : t -> route:int -> delay:float -> unit
  (** Record a measured one-way delay (seconds) for a route. *)

  val estimated_delay : t -> route:int -> float
  (** Current EWMA delay of a route (0 when unobserved). *)

  val release_delay : t -> route:int -> float
  (** Extra delay to impose on a packet that just arrived on [route]:
      the gap to the slowest route's estimated delay. *)
end
