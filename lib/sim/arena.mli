(** Flat int encoding of the engine's event variants.

    Every scheduled event is a single immediate int: a 4-bit tag plus
    packed operands (see the layout table in the implementation), so
    the steady-state event loop allocates zero words per event. Rare
    payloads that cannot pack — ACK reports, equalizer-held packets,
    fault boundary values — park in a typed {!Slots}/{!Fslots} store
    and travel as a slot index.

    The engine enforces the field widths at bootstrap: flow ids fit 16
    bits ({!max_flow}), link ids 20 bits ({!max_link}); sequence
    numbers are masked to 32 bits at the source. *)

val tag : int -> int
(** The 4-bit variant tag of an encoded event. *)

val t_tx_end : int
val t_inject : int
val t_control_tick : int
val t_tcp_ack : int
val t_reorder_release : int
val t_tcp_rto : int
val t_flow_start : int
val t_flow_stop : int
val t_reclaim_probe : int
val t_ack_arrive : int
val t_capacity_change : int
val t_loss_change : int
val t_ctrl_change : int

val max_flow : int
val max_link : int

(** Encoders. Hot ones are pure arithmetic — no bounds checks; the
    engine validates widths once at bootstrap. *)

val tx_end : int -> int
val inject : int -> int
val control_tick : int
val tcp_ack : flow:int -> cum:int -> ece:bool -> int
val reorder_release : flow:int -> slot:int -> int
val tcp_rto : flow:int -> slot:int -> int
val flow_start : int -> int
val flow_stop : int -> int

val reclaim_probe : flow:int -> route:int -> gen:int -> int
(** @raise Invalid_argument if the route id exceeds 8 bits. *)

val ack_arrive : flow:int -> slot:int -> int
val capacity_change : link:int -> slot:int -> int
val loss_change : link:int -> slot:int -> int
val ctrl_change : slot:int -> int

(** Decoders (field positions per tag are in the implementation's
    layout table). *)

val link : int -> int
(** Link id of a [t_tx_end] event (the whole payload). *)

val link20 : int -> int
(** 20-bit link id of [t_capacity_change] / [t_loss_change]. *)

val flow : int -> int
(** 16-bit flow id (tags 3, 4, 5, 8, 9). *)

val flow_wide : int -> int
(** Flow id when it is the whole payload (tags 1, 6, 7). *)

val tcp_ack_cum : int -> int
val tcp_ack_ece : int -> bool
val slot20 : int -> int
val slot24 : int -> int
val slot4 : int -> int
val probe_route : int -> int
val probe_gen : int -> int

(** Typed payload stores: growable arrays with an explicit free
    stack. A released slot keeps its last payload until reuse; stores
    are per-run, so transient liveness is bounded by the high-water
    mark. *)
module Slots : sig
  type 'a t

  val create : unit -> 'a t
  val put : 'a t -> 'a -> int
  val get : 'a t -> int -> 'a
  val release : 'a t -> int -> unit
end

(** {!Slots} specialised to unboxed floats. Values pass through the
    store's one-slot {!cell} instead of as arguments and results: a
    float handed to or returned from a function of another module is
    boxed, a store into the cell is not. *)
module Fslots : sig
  type t

  val create : unit -> t

  val cell : t -> float array
  (** The store's operand cell, owned by the store: {!put} reads the
      value to park from [cell.(0)], {!load} writes a slot's value
      there. *)

  val put : t -> int
  (** Park [(cell t).(0)] and return its slot. *)

  val load : t -> int -> unit
  (** [(cell t).(0) <-] the slot's value; the slot stays taken. *)

  val release : t -> int -> unit
end
