(** Runtime invariant checker for the discrete-event datapath.

    The engine's credibility rests on conservation laws that hold at
    every step of a simulation but that no end-to-end assertion can
    see: frames are neither created nor destroyed silently, the MAC
    never puts two interfering links on the air at once, queues stay
    within their configured bound, congestion prices stay
    non-negative, the reorder buffer releases each sequence number
    exactly once and in order, and no flow delivers faster than the
    controller allows it to inject. This module checks all of them
    while a simulation runs.

    The checker is fed by the engine through narrow accounting hooks
    ([on_inject], [on_drop], ...) and inspects the live MAC state
    through a {!view} of closures, so it holds no reference to engine
    internals and can equally be driven by a test harness (which is
    how the negative tests inject bookkeeping bugs and verify they
    are caught).

    Enable it for any simulation by passing [~invariants:(create ())]
    to {!Engine.run}, or for a whole process (every [Engine.run],
    including the figure experiments) by setting the [EMPOWER_CHECK]
    environment variable. A violated invariant raises {!Violation}
    carrying a structured report; with [~mode:`Collect] violations
    accumulate instead and are read back with {!violations}. *)

type violation = {
  time : float;          (** simulation time of the failing check *)
  rule : string;         (** e.g. ["frame-conservation"] *)
  link : int option;     (** offending link id, when localized *)
  node : int option;     (** offending node id, when localized *)
  flow : int option;     (** offending flow id, when localized *)
  detail : string;       (** counter values behind the verdict *)
}

exception Violation of violation

val describe : violation -> string
(** One-line rendering: time, rule, location, detail. *)

(** How the source may inject frames; bounds the paced-injection
    check. *)
type pacing =
  | Paced         (** UDP under the controller: one frame per 1/rate *)
  | Token_bucket  (** TCP policed by the controller's bucket *)
  | Unpoliced     (** TCP without CC: window-driven, no rate bound *)

(** Read-only window onto the live MAC state, supplied per check.
    All closures must be cheap; [iter_queued l f] calls [f] with the
    flow id of every frame queued on link [l]. [live_frames ()] is the
    number of frame records out of the engine's frame pool, and
    [held_frames ()] the number of delivered frames the delay
    equalizer still holds back. *)
type view = {
  n_links : int;
  queue_len : int -> int;
  on_air_flow : int -> int option;  (** flow of the frame on the air *)
  iter_queued : int -> (int -> unit) -> unit;
  domain : int -> int array;        (** interference domain, incl. self *)
  gamma : int -> float;             (** dual variable of the link *)
  link_src : int -> int;            (** transmitting node of a link *)
  live_frames : unit -> int;        (** frames out of the frame pool *)
  held_frames : unit -> int;        (** frames held by the equalizer *)
}

type t

val create : ?mode:[ `Raise | `Collect ] -> unit -> t
(** Fresh checker; [`Raise] (default) throws {!Violation} on the
    first failure, [`Collect] records and keeps going. *)

val env_enabled : unit -> bool
(** [true] iff the [EMPOWER_CHECK] environment variable is set. *)

val configure : t -> queue_limit:int -> frame_bytes:int -> control_period:float -> unit
(** Static simulation parameters; call once before the first hook. *)

val bucket_depth : frame_bytes:int -> float array -> unit
(** The depth of the token bucket that polices a flow: a quarter-second
    of its allocation, at least 8 frames, so ack-clocked TCP bursts are
    not punished when the average rate respects the allocation.
    [bucket_depth ~frame_bytes cell] replaces the allocation in
    [cell.(0)], in bytes/s, by the depth in bytes (a cell, so the
    engine's per-segment refill boxes no float). The engine's bucket
    and the [Token_bucket] slack of the paced-injection check both read
    it. *)

val register_flow : t -> flow:int -> pacing:pacing -> rate:float -> unit
(** Declare a flow (ids must be registered in increasing dense order)
    with its pacing discipline and initial total route rate. *)

(** {2 Accounting hooks (called by the engine)} *)

val on_inject : t -> now:float -> flow:int -> unit
(** A frame entered the network at its source. *)

val on_probe : t -> now:float -> flow:int -> unit
(** A recovery reclaim probe entered the network. Probes are armed by
    the backoff schedule, not the pacing loop, so they count for frame
    conservation but not against the paced-injection window. *)

val on_deliver : t -> now:float -> flow:int -> unit
(** A frame reached its destination node. *)

val on_drop :
  t ->
  now:float ->
  flow:int ->
  link:int option ->
  reason:[ `Drop of Obs.Trace.drop_reason | `Collision ] ->
  unit
(** A frame left the network without being delivered, in the trace's
    vocabulary: a [drop] event with its reason, or a [collision]. *)

val on_release : t -> now:float -> flow:int -> [ `Deliver of int | `Lost of int ] -> unit
(** The reorder buffer released sequence [seq] (delivered in order,
    or declared lost). Checks no-duplicate / no-reorder delivery:
    release events must cover sequence numbers consecutively. *)

val on_rate : t -> flow:int -> rate:float -> unit
(** The controller changed the flow's total route rate (Σ_r x_r). *)

val on_tick : t -> now:float -> view -> unit
(** Control-period boundary: runs the windowed checks (per-flow frame
    attribution against the live queues, paced-injection bound,
    goodput ≤ injection + drained backlog) and resets the window. *)

val check_step : t -> now:float -> view -> unit
(** Per-event checks: global frame conservation against the live
    queues, the frame pool's live count against the frames queued, on
    the air or held by the equalizer (rule ["frame-pool"]: a frame
    freed twice or never freed), FIFO bound,
    single-transmitter-per-domain, non-negative finite prices. Call
    after every processed event. *)

(** {2 Reading results} *)

val violations : t -> violation list
(** Violations recorded so far, oldest first (empty under [`Raise]
    unless the exception was caught). *)

val events_checked : t -> int
(** Number of [check_step] calls — proof the checker actually ran. *)

val frames_delivered : t -> int
(** Frames delivered, across all flows. *)
