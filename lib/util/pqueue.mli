(** Mutable binary min-heap keyed by float priority.

    Used by Dijkstra/Yen in [empower_graph] and by the event queue of
    the discrete-event simulator, where the priority is an event
    timestamp. Ties are broken by insertion order (FIFO), which keeps
    simulations deterministic.

    The heap is backed by parallel arrays — a bare [float array] for
    priorities, an [int array] for tie-break sequence numbers and an
    ['a array] for payloads — so pushing allocates nothing beyond
    occasional geometric regrowth. *)

type 'a t
(** A min-heap of ['a] elements with float priorities. *)

val create : ?capacity:int -> unit -> 'a t
(** Fresh empty heap. [capacity] (default 16) pre-sizes the backing
    arrays so a heap whose peak population is known up front never pays
    for regrowth. Values below 1 are clamped to 1. *)

val is_empty : 'a t -> bool
(** [true] iff the heap holds no element. *)

val size : 'a t -> int
(** Number of queued elements. *)

val capacity : 'a t -> int
(** Current backing-store capacity (slots before the next regrowth).
    Exposed for tests and diagnostics. *)

val push : 'a t -> float -> 'a -> unit
(** [push t prio x] inserts [x] with priority [prio]. *)

val push_seq : 'a t -> float -> seq:int -> 'a -> unit
(** [push_seq t prio ~seq x] inserts [x] under the caller's own
    tie-break number [seq] instead of the next one from the heap's
    counter: equal priorities pop in increasing [seq]. For a caller
    that numbers its entries itself, such as the overflow level of
    [Wheel], whose entries keep the wheel's sequence number. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the minimum-priority element, FIFO among ties. *)

val pop_push : 'a t -> float -> 'a -> (float * 'a) option
(** [pop_push t prio x] is observably identical to
    [let r = pop t in push t prio x; r] — the popped minimum (or [None]
    on an empty heap) followed by the insertion of [x] with a fresh
    sequence number — but performs a single sift instead of two. The
    element just inserted is never returned by the same call. *)

val peek : 'a t -> (float * 'a) option
(** Return the minimum-priority element without removing it. *)

val top_prio : 'a t -> float
(** Priority of the minimum element. @raise Invalid_argument on an
    empty heap. Unlike {!peek} it builds no option or pair, though a
    caller in another module still receives the float boxed. *)

val top : 'a t -> 'a
(** Minimum element itself, without removing it.
    @raise Invalid_argument on an empty heap. *)

val top_seq : 'a t -> int
(** Tie-break number of the minimum element.
    @raise Invalid_argument on an empty heap. *)

val drop : 'a t -> unit
(** Remove the minimum element without returning it (allocation-free
    {!pop}). @raise Invalid_argument on an empty heap. *)

val drop_push : 'a t -> float -> 'a -> unit
(** {!pop_push} without materialising the popped pair: replaces the
    minimum with [x] (fresh sequence number) in a single sift-down, or
    degenerates to {!push} on an empty heap. *)

val clear : 'a t -> unit
(** Drop all elements. The backing capacity is retained, so clearing
    and refilling a heap never regrows from scratch. *)
