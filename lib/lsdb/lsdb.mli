(** The link-state database and its flooding discipline.

    Each node keeps the freshest LSA per origin (higher sequence
    number wins) with the time it was installed. {!insert} returns
    the flooding decision: a new-or-fresher LSA is installed and must
    be re-broadcast on all interfaces; stale and duplicate ones are
    dropped — the standard OSPF-style rule that terminates flooding
    in (diameter) rounds with at most one forward per node per LSA.

    {!graph} assembles the hybrid multigraph from the current
    database: an edge exists when either endpoint advertises it (the
    paper's links are bidirectional; estimates from the two ends are
    averaged when both are present), which is what a flow source
    feeds to the Section 3 routing algorithms. *)

type t

val create : unit -> t
(** An empty database, one per node. *)

val insert : t -> now:float -> Lsa.t -> [ `Installed | `Duplicate | `Stale ]
(** Flooding decision for a received (or self-originated) LSA:
    [`Installed] — new origin or higher sequence, forward it;
    [`Duplicate] — same sequence as stored, drop;
    [`Stale] — lower sequence, drop. *)

val lookup : t -> origin:int -> Lsa.t list
(** Freshest LSA fragments of an origin, ordered by fragment id
    (empty when unknown). *)

val entries : t -> Lsa.t list
(** All stored LSAs, ordered by origin. *)

val purge : t -> now:float -> max_age:float -> int
(** Drop LSAs installed more than [max_age] seconds ago (dead nodes
    stop refreshing; their links must not linger). Returns how many
    were dropped. *)

val graph : t -> n_nodes:int -> n_techs:int -> Multigraph.t
(** Build the multigraph the database implies. Advertisements that
    reference out-of-range nodes/technologies are ignored (a crashed
    or malicious node must not poison routing). *)

(** Synchronous flooding over a connectivity relation — the control
    plane's convergence, testable without the packet engine. *)
module Flood : sig
  type stats = {
    rounds : int;     (** rounds until quiescence *)
    messages : int;   (** total LSA transmissions *)
  }

  val propagate :
    neighbors:(int -> int list) -> dbs:t array -> from:int -> Lsa.t -> stats
  (** Inject an LSA at node [from] and flood until no database
      changes: each round, every node that installed something new
      re-broadcasts it to its neighbors. [neighbors] must be
      symmetric. *)
end
