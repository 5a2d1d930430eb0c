(** A Reno-style TCP sender state machine (for Section 6.4), with an
    optional DCTCP-style ECN reaction.

    The TCP-friendliness study only needs the dynamics that interact
    with EMPoWER: window growth (slow start / congestion avoidance),
    loss detection by triple duplicate ACK (fast retransmit / fast
    recovery) and by retransmission timeout, and RTT estimation
    (Jacobson/Karn). Segments are fixed-size and identified by index;
    the receiver side is the engine's reorder buffer, which produces
    cumulative ACKs (and, when the network marks, echoes the CE bit of
    the frame that triggered each ack).

    The module is pure state: the simulator asks {!take_segment} when
    it can transmit, feeds {!on_ack} / {!on_rto}, and polls the timer
    cell ({!rto_deadline_cell}) to schedule timer events.

    {b Clock contract.} A sender reads the current time from the
    clock cell it was created with: [clock.(0)] is "now" for every
    call that stamps or compares times ({!take_segment}, {!on_ack},
    {!on_rto}), so the caller advances the cell (the engine hands over
    its event-loop clock) instead of passing the time as a float
    argument, which would be boxed on every call. The sender only
    reads the cell. *)

(** How the sender reacts to ECN marks.

    [Reno] ignores the ECE echo entirely (classic loss-driven Reno —
    under buffer pressure it fills the queue until it tail-drops).
    [Dctcp] keeps an EWMA [alpha] of the marked fraction with gain
    [g]: per observation window of one cwnd of data, the fraction [F]
    of acked segments whose ack echoed CE is folded in as
    [alpha <- (1 - g) alpha + g F], and a window that saw any mark
    cuts [cwnd <- cwnd (1 - alpha/2)] (once per window, never below
    one segment; ssthresh follows). Starting from [alpha = 0], [k]
    fully-marked windows give [alpha = 1 - (1 - g)^k]; with no marks
    the trajectory is exactly Reno's. *)
type variant = Reno | Dctcp of { g : float }

type params = {
  segment_bytes : int;    (** segment size (one aggregate frame) *)
  init_cwnd : float;      (** initial window, segments *)
  init_ssthresh : float;  (** initial slow-start threshold, segments *)
  min_rto : float;        (** RTO floor, seconds *)
  max_cwnd : float;       (** window cap, segments *)
  variant : variant;      (** ECN reaction; {!Reno} by default *)
}

val default_params : params
(** 12000-byte segments, cwnd 2, ssthresh 64, 200 ms RTO floor,
    cwnd cap 1000, Reno. *)

val dctcp_params : params
(** {!default_params} with [variant = Dctcp { g = 1/16 }] (the DCTCP
    paper's recommended gain). *)

type t

val create :
  ?params:params -> clock:float array -> total_bytes:int option -> unit -> t
(** A sender with the given amount of data ([None] = unbounded),
    reading the time from [clock.(0)] (see the clock contract
    above). *)

val segments_total : t -> int option
(** Total segments to deliver, if bounded. *)

val take_segment : ?new_data_limit:int -> t -> int
(** The next segment index to transmit, if the window allows:
    retransmissions first, then new data. Marks the segment as
    in-flight and records the clock as its send time. [-1] when
    window-limited or out of data. [new_data_limit] caps the index of
    *new* segments (exclusive) — the application-layer gate for data
    that has not been produced yet (e.g. Poisson file arrivals);
    retransmissions are never blocked. *)

val on_ack : ece:bool -> t -> cum_ack:int -> unit
(** Process a cumulative ACK arriving at the clock's time ([cum_ack]
    = number of in-order segments the receiver has; i.e. segments
    [0 .. cum_ack-1] are delivered).
    Handles new-data ACKs (window growth, RTT sample), duplicate ACKs
    and fast retransmit/recovery. [ece] is the receiver's echo of the
    CE bit on the frame that produced this ack; it only matters to the
    {!Dctcp} variant — {!Reno} ignores it. *)

val on_rto : t -> unit
(** Retransmission timeout at the clock's time: collapse cwnd to 1,
    halve ssthresh, queue the oldest unacked segment, back the timer
    off. *)

val rto_deadline_cell : t -> float array
(** The sender's timer cell: slot 0 holds the absolute time at which
    the pending timer fires, [nan] when nothing is in flight. Owned
    and written by the sender; callers only read it (a float returned
    by a call into this module would be boxed). *)

val finished : t -> bool
(** All segments delivered (never true for unbounded senders). *)

val cwnd : t -> float
(** Current congestion window, segments. *)

val ssthresh : t -> float

val dctcp_alpha : t -> float
(** Current DCTCP marked-fraction EWMA (0 for {!Reno} senders and for
    {!Dctcp} senders that have never seen a mark). *)

val srtt : t -> float
(** Smoothed RTT estimate (0 before the first sample). *)

val snd_una : t -> int
(** Lowest unacknowledged segment index. *)

val in_flight : t -> int
(** Segments sent and not yet cumulatively acknowledged. *)

val retransmissions : t -> int
(** Total retransmitted segments (diagnostic). *)
