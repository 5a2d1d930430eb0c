(** Path rates and the [update(P, G)] procedure (Section 3.2).

    From Lemma 1, when λ links contend in one collision domain the
    best common rate is [(Σ d_l)^-1]. For a path [P], the rate
    supported by link [l ∈ P] is [R(l,P) = (Σ_{l' ∈ I_l ∩ P} d_l')^-1]
    and the end-to-end rate is [R(P) = min_l R(l,P)].

    [update P G] returns the multigraph view where every link in
    [∪_{l ∈ P} I_l] keeps only its idle-time fraction
    [r(l,P) = 1 - Σ_{l' ∈ I_l ∩ P} R(P) · d_l'] of its capacity —
    the resources left if traffic is sent on [P] at full rate [R(P)].
    The bottleneck link (and everything sharing its domain airtime)
    drops to zero, which is what terminates the exploration tree. *)

val rate_on_link : Multigraph.t -> Domain.t -> Paths.t -> int -> float
(** [R(l,P)] for [l ∈ P]; 0 if any involved link has zero capacity. *)

val path_rate : Multigraph.t -> Domain.t -> Paths.t -> float
(** [R(P) = min_{l ∈ P} R(l,P)] — the maximum end-to-end rate of the
    path used alone, accounting for intra-path interference. *)

val idle_fraction : Multigraph.t -> Domain.t -> Paths.t -> int -> float
(** [r(l,P)] for any link [l] of the network (clamped to [0, 1]). *)

val update : Multigraph.t -> Domain.t -> Paths.t -> Multigraph.t
(** [update g dom p] is the capacity-updated view G~. [r(l,P)] depends
    on [l] only through I_l, so it is computed once per twin class
    ({!Domain.twin}). Links outside [∪_{l ∈ P} I_l] keep their
    capacity bit for bit. *)
