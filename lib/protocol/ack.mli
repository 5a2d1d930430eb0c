(** Acknowledgement records (Sections 4.2 and 6.1).

    The destination of each flow sends an acknowledgement (at most)
    every 100 ms over the best reverse single-path, in prioritized
    queues. An ACK echoes, per route: the latest q_r observed in
    arriving headers (the input of the source's rate update), the
    highest sequence received, and the bytes received since the last
    ACK (the source's goodput/loss view). The destination-side
    {!collector} accumulates these between ACK emissions. *)

type route_report = {
  route : int;         (** route index within the flow *)
  qr : float;          (** latest q_r seen on this route; 0 if none *)
  highest_seq : int;   (** highest sequence received; -1 if none *)
  bytes : int;         (** bytes received on this route since last ACK *)
  marked : int;        (** of [bytes], those that arrived CE-marked *)
}

type t = {
  flow : int;
  sent_at : float;
  reports : route_report list;  (** one per route of the flow *)
}

type collector
(** Destination-side accumulator for one flow. *)

val collector : flow:int -> n_routes:int -> collector
(** Fresh accumulator. *)

val on_packet :
  ce:bool -> collector -> route:int -> qr:float array -> seq:int -> bytes:int -> unit
(** Record an arriving data packet's header fields. The frame's q_r
    is read from the caller's cell [qr.(0)] (a float argument of a
    call into this module would be boxed on every frame); the cell is
    only read, during the call. [ce] is the frame's ECN
    congestion-experienced bit; marked bytes are accumulated
    separately so the source can compute a per-window marked
    fraction. *)

val emit : collector -> now:float -> t
(** Build the ACK for the current window and reset the per-window
    byte counters (q_r and highest_seq persist: they are "latest
    state", not window sums). *)
