(** Timing-wheel event scheduler for the simulator's event loop.

    A calendar queue over 1024 fixed-width (2^-12 s) time buckets with
    a {!Pqueue} overflow level for timers beyond the ~250 ms horizon.
    Near-future pushes and pops — the vast majority under the
    simulator's periodic workload — cost O(1); far timers (flow stops,
    fault-plan boundaries) migrate in as the cursor approaches.

    The ordering contract is exactly {!Pqueue}'s: minimum float
    priority first, FIFO among ties by a global insertion sequence
    number. This is what keeps golden traces byte-identical across the
    scheduler swap; a QCheck property in the test suite checks pop
    sequences against the heap on arbitrary interleavings.

    Priorities must be finite, non-negative, and below ~1e12 seconds.
    The API mirrors {!Pqueue}, except that a push reads its priority
    from {!push_prio_cell} and the minimum's priority can be read from
    {!min_prio_cell}, so a hot loop moves no boxed float in or out. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** Fresh empty wheel. [capacity] pre-sizes the overflow heap (the
    wheel's buckets grow on demand and persist across drops). *)

val is_empty : 'a t -> bool
val size : 'a t -> int

val push_prio_cell : 'a t -> float array
(** The wheel's one-slot cell that {!push} and {!drop_push} read the
    new element's priority from, the same array for the wheel's whole
    life (the mirror of {!min_prio_cell}). Set slot 0 before each
    push: a priority passed as an argument would be boxed on every
    call from another module, where a store into the cell is a plain
    store. *)

val push : 'a t -> 'a -> unit
(** [push t x] inserts [x] with priority [(push_prio_cell t).(0)].
    O(1) within the horizon, O(log overflow) beyond it. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the minimum-priority element, FIFO among ties. *)

val peek : 'a t -> (float * 'a) option

val top : 'a t -> 'a
(** Minimum element itself, without removing it.
    @raise Invalid_argument on an empty wheel. *)

val min_prio_cell : 'a t -> float array
(** The wheel's one-slot cell holding the minimum's priority, the
    same array for the wheel's whole life. After {!top} it holds the
    minimum's priority, until the next {!push}, {!drop} or
    {!drop_push}; reading it is a plain load (a float returned across
    modules, compiled separately, would be boxed). *)

val drop : 'a t -> unit
(** Remove the minimum element (allocation-free {!pop}).
    @raise Invalid_argument on an empty wheel. *)

val drop_push : 'a t -> 'a -> unit
(** [drop] the minimum then [push] (priority from {!push_prio_cell})
    with a fresh sequence number, or plain [push] on an empty wheel —
    same observable behaviour as {!Pqueue.drop_push}. *)
