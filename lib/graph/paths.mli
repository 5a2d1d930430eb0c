(** Routes: loop-free sequences of directed links.

    A route (equivalently, a path; Section 2) from [s] to [d] is the
    ordered list of directed link ids joining them. Link ids refer to a
    {!Multigraph.t}; a path value is only meaningful together with the
    multigraph (or any capacity-updated view of it, since views share
    the link structure). *)

type t = { links : int list }
(** Ordered hops; the head is the first link out of the source. *)

val of_links : Multigraph.t -> int list -> t
(** Validate contiguity ([dst] of each hop = [src] of the next) and
    non-emptiness. Raises [Invalid_argument] otherwise. *)

val src : Multigraph.t -> t -> int
(** Source node (transmitter of the first hop). *)

val dst : Multigraph.t -> t -> int
(** Destination node (receiver of the last hop). *)

val nodes : Multigraph.t -> t -> int list
(** Visited nodes in order, source first, destination last. *)

val hops : t -> int
(** Number of links. *)

val is_loopless : Multigraph.t -> t -> bool
(** [true] iff no node is visited twice. *)

val techs : Multigraph.t -> t -> int list
(** Technology of each hop, in order. *)

val mem_link : t -> int -> bool
(** [true] iff the path uses the given link id. *)

val pp : Multigraph.t -> Format.formatter -> t -> unit
(** Print as ["0 -w-> 3 -p-> 5"]-style hop chain (first letter of a
    technology index as [t<k>]). *)
