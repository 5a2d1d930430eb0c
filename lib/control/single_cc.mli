(** The single-path congestion controller (Section 4.2).

    One route per flow. Each slot applies (7)–(10):
    [y_l] from measured airtime demands, the dual update
    [γ_l ← [γ_l + α (y_l - (1-δ))]+], route costs [q_r], and the
    primal step [x_r ← U'^-1(q_r)]. With a diminishing step size this
    converges to the optimum of (4)–(6); EMPoWER uses a fixed (or
    heuristically adapted) α to keep tracking network changes, which
    converges to a small neighborhood of the optimum. *)

val solve : ?slots:int -> Problem.t -> Cc_result.t
(** Run the controller for [slots] iterations (default 2000) from
    x = 0, γ = 0, with the fixed paper step size α = {!Alpha.base}. The primal
    iterate is capped at 1000 Mbps — U'^-1 explodes while prices are
    still zero in the first slots. Requires every flow of the problem
    to have exactly one route. *)
