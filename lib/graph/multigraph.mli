(** The hybrid-network multigraph G(V, {E_1, ..., E_K}) of Section 2.

    Nodes are integers [0 .. n_nodes-1]. Each physical (bidirectional)
    edge of technology [k] is materialized as two directed links that
    share the same medium; link capacities are in Mbit/s. A link is
    usable when its capacity is strictly positive; the paper's
    [d_l = 1/c_l] metric is exposed as {!d} and is [infinity] for
    unusable links, so routing naturally avoids them.

    Values of type {!t} are immutable: the routing [update] procedure
    (Section 3.2) derives new views with {!scale_capacities}. *)

type link = {
  id : int;          (** dense link identifier, [0 .. num_links-1] *)
  src : int;         (** transmitting node *)
  dst : int;         (** receiving node *)
  tech : int;        (** technology index, [0 .. n_techs-1] *)
  peer : int;        (** id of the reverse-direction link *)
  edge : int;        (** physical-edge identifier shared with [peer] *)
}

type t
(** Immutable multigraph with current link capacities. *)

val create :
  n_nodes:int -> n_techs:int -> edges:(int * int * int * float) list -> t
(** [create ~n_nodes ~n_techs ~edges] builds a multigraph from
    physical edges [(u, v, tech, capacity_mbps)]. Each edge yields two
    directed links ([u->v] first). Raises [Invalid_argument] on bad
    node ids, bad technology indexes, non-finite or negative
    capacities, or self-loops. *)

val n_nodes : t -> int
(** Number of nodes. *)

val n_techs : t -> int
(** Number of technologies [K]. *)

val num_links : t -> int
(** Number of directed links (twice the number of physical edges). *)

val link : t -> int -> link
(** Link record by id. Raises [Invalid_argument] on bad ids. *)

val links : t -> link array
(** All links, indexed by id. Do not mutate. *)

val capacity : t -> int -> float
(** Current capacity (Mbit/s) of a link, by id. *)

val capacities : t -> float array
(** Copy of the full capacity vector, indexed by link id. *)

val d : t -> int -> float
(** [d g l] is [1 /. capacity g l], the paper's airtime-per-bit metric;
    [infinity] when the capacity is zero. *)

val usable : t -> int -> bool
(** [true] iff the link currently has strictly positive capacity. *)

type flat = private {
  out_start : int array;
      (** CSR offsets, [n_nodes + 1] long: the links leaving node [u]
          are [out.(out_start.(u))] .. [out.(out_start.(u + 1) - 1)] *)
  out : int array;  (** link ids, ascending within each node *)
  dst_of : int array;  (** per link: receiving node *)
  tech_of : int array;  (** per link: technology index *)
  d : float array;  (** per link: {!d} in this view *)
  min_egress_d : float array;
      (** per node: the smallest [d] over its out-links ([infinity]
          when none is usable) *)
}
(** The arrays a shortest-path search walks. [out_start], [out], [dst_of]
    and [tech_of] are shared by every view of one topology; [d] and
    [min_egress_d] are filled once when the view is made. *)

val flat : t -> flat
(** The view's arrays, by reference. Do not mutate. *)

val out_links : t -> int -> int list
(** Ids of links leaving a node (any technology). *)

val in_links : t -> int -> int list
(** Ids of links entering a node. *)


val with_capacities : t -> float array -> t
(** A view of the same structure with a different capacity vector
    (the array is copied). Raises [Invalid_argument] on length
    mismatch or negative entries. *)

val scale_capacities : t -> group:(int -> int) -> float array -> t
(** [scale_capacities g ~group factors] is the view in which link [l]
    has capacity [capacity g l *. factors.(group l)]: links fall into
    groups that share one factor (routing's update() groups them by
    twin class). Every factor must lie in [\[0, 1\]], so capacities stay
    finite and non-negative; raises [Invalid_argument] otherwise. The
    capacity vector is copied once. *)

val find_links : t -> src:int -> dst:int -> int list
(** All directed links from [src] to [dst] (one per technology edge). *)
