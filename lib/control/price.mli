(** Dual prices and airtime accounting — equations (7), (8), (9).

    Each node measures the airtime demand of its egress links and
    broadcasts per-technology aggregates; overhearing nodes assemble
    [y_l] for their own links, maintain the dual variables [γ_l], and
    stamp the running route cost into the layer-2.5 header so the
    destination learns [q_r]. This module is the centralized
    simulation of exactly that arithmetic, with incidence structures
    precomputed once per problem. *)

type t
(** Price state ([γ_l] per link) plus the cached route/link incidence
    for one {!Problem.t}. *)

val create : Problem.t -> t
(** Fresh state with [γ = 0]. *)

val gamma : t -> float array
(** Current dual variables (returned by reference; treat as
    read-only). *)

val airtimes : t -> x:float array -> float array
(** [y_l] for every link under route rates [x]: equation (7) plus the
    problem's external airtime. *)

val step_gamma : t -> y:float array -> alpha:float -> unit
(** Equation (8) with the margin of (3):
    [γ_l ← [γ_l + α (y_l - (1 - δ))]+]. *)

val route_costs : t -> float array
(** [q_r] for every route under the current [γ]: equation (9). *)

val routes_on_link : t -> int -> int list
(** Route ids traversing a link (cached incidence; for tests). *)
