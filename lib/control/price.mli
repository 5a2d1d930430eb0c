(** Dual prices and airtime accounting — equations (7), (8), (9).

    Each node measures the airtime demand of its egress links and
    broadcasts per-technology aggregates; overhearing nodes assemble
    [y_l] for their own links, maintain the dual variables [γ_l], and
    stamp the running route cost into the layer-2.5 header so the
    destination learns [q_r]. This module is the centralized
    simulation of exactly that arithmetic, with incidence structures
    precomputed once per problem.

    {b Airtime classes.} Only links that can carry traffic (route
    links and links with external airtime, the {e carriers}) have
    demand, and only links whose domain holds a carrier (the {e priced}
    links) can get a nonzero [γ]. Priced links [i] with the same
    [I_i ∩ carriers] form one class: (7) sums the same demands in the
    same domain order for each of them and (8) starts each at [γ = 0],
    so their [y_i] and [γ_i] are bit-identical at every slot. The
    state holds one [y] and one [γ] per class, which is what makes a
    slot cheap; per-link arrays are built only by {!gamma} and
    {!airtimes}. *)

type t
(** Price state ([γ] per airtime class) plus the cached route/link
    incidence for one {!Problem.t}. *)

val create : Problem.t -> t
(** Fresh state with [γ = 0]. *)

val gamma : t -> float array
(** Current dual variables, expanded to one entry per link of the
    graph (0 for links outside the priced set). A fresh array on every
    call. *)

val airtimes : t -> x:float array -> float array
(** [y_l] for every link under route rates [x]: equation (7) plus the
    problem's external airtime, expanded to one entry per link (a
    fresh array). Leaves [γ] unchanged. *)

val step : t -> x:float array -> alpha:float -> unit
(** One dual update under route rates [x]: [y] by equation (7), then
    equation (8) with the margin of (3),
    [γ_l ← [γ_l + α (y_l - (1 - δ))]+], once per airtime class. *)

val route_costs : t -> float array
(** [q_r] for every route under the current [γ]: equation (9),
    [q_r = Σ_{l∈r} d_l Σ_{i∈I_l} γ_i]. Each inner sum runs over [I_l]
    in domain order, where consecutive links of one airtime class
    carry the same [γ]: {!Run_sum.add} adds each such run of [n] equal
    terms in O(log n) operations, and the sum equals the left fold of
    [γ_i] over [I_l] in domain order, bit for bit. The inner sum is
    computed once per twin class of the route links. The array is the
    state's own and is overwritten by the next call; copy it to keep
    it. *)
