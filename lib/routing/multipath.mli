(** The multipath-routing protocol (Section 3.2).

    Builds the exploration tree T: the root is the initial multigraph;
    each tree vertex [G] is expanded with the (up to) [n] shortest
    single-path-procedure routes of [n-shortest(G)], each edge [P]
    leading to the child [update(P, G)] and carrying weight [R(P)].
    The procedure returns the branch [B(G_L)] of maximum total
    capacity [Σ_{P ∈ B} R(P)] — the combination of paths that yields
    the highest total throughput when used simultaneously, interference
    included. A link can appear in several returned paths, and the
    number of returned paths is topology-driven: extra paths are kept
    only when they add capacity.

    Defaults follow the paper: [n = 5]. On the paper's networks,
    shared-medium updates zero whole collision domains and trees stay
    shallow (depth <= 3 observed); topologies with more localized
    interference can branch much deeper, so the construction is
    bounded by a branch-depth cap ([max_depth], default 6 — the
    mitigation Section 3.2 itself suggests), a total vertex budget of
    2000, and by ignoring candidate paths with [R(P) < 0.1] Mbps. The
    bounds only trim
    combinations of 7+ simultaneous paths, whose residual capacities
    are negligible. *)

type combination = {
  paths : (Paths.t * float) list;
      (** the chosen routes with the rate [R(P)] each contributes,
          in tree order (first = selected in the original graph) *)
  total_rate : float;  (** Σ R(P), the branch capacity C_B *)
  tree_depth : int;    (** depth of the winning leaf *)
  tree_vertices : int; (** number of explored tree vertices (ablation metric) *)
}

val find :
  ?n:int ->
  ?csc:bool ->
  ?max_depth:int ->
  Multigraph.t ->
  Domain.t ->
  src:int ->
  dst:int ->
  combination
(** Run the full procedure. An unreachable destination yields the
    empty combination ([paths = []], [total_rate = 0]). Requires
    [src <> dst] and [n >= 1]. *)

val routes : combination -> Paths.t list
(** Just the routes, in order. *)
