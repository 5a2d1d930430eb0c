(** The multipath congestion controller (Section 4.3).

    Flows may own several routes; the objective [Σ_f U_f(Σ_{r∈f} x_r)]
    is concave but not strictly concave in x, so the controller
    maximizes the proximal objective (11) — the same optimizer, made
    strictly concave with the auxiliary variable x̄. The per-slot
    updates are:

    {v
    x_r ← (1-α) x_r + α [ x̄_r + U'_f(Σ_{h∈f} x_h) - q_r ]+
    x̄_r ← (1-α) x̄_r + α x_r
    v}

    with [y_l], [γ_l], [q_r] exactly as in the single-path controller.
    The controller is distributed: the rate update needs only the
    flow's own rates, [x̄_r], and the [q_r] echoed by the destination
    in the 100 ms acknowledgements. *)

val update_rate :
  a:float ->
  gain:float ->
  u':float ->
  q:float ->
  x:float array ->
  x_bar:float array ->
  int ->
  unit
(** [update_rate ~a ~gain ~u' ~q ~x ~x_bar r] is the first update above
    for route [r], with the proximal weight [gain] (see {!solve}):
    [x.(r) <- (1-a) x.(r) + a [x_bar.(r) + gain (u' - q)]+], where [u']
    is the marginal utility of the route's flow and [q] the route's
    price. The packet engine applies it to each route an ACK reports. *)

val update_average : a:float -> x:float array -> x_bar:float array -> unit
(** The second update, over every route:
    [x_bar.(r) <- (1-a) x_bar.(r) + a x.(r)]. *)

val solve :
  ?gain:float ->
  ?slots:int ->
  ?stop_tol:float ->
  ?x_init:float array ->
  Problem.t ->
  Cc_result.t
(** Run for [slots] iterations (default 2000) from [x_init] (default
    all-zero), γ = 0, x̄ = x_init, with the paper's fixed step size
    α = {!Alpha.base} and utility {!Utility.proportional_fair}. Works for any
    mix of single- and multi-route flows (a single-route flow recovers
    near-single-path behaviour).

    [gain] is the proximal weight: the quadratic penalty in (11) is
    [1/(2c) Σ (x_r - x̄_r)^2], giving the update
    [x_r ← (1-α) x_r + α [x̄_r + c (U'_f - q_r)]+]. Any [c > 0] leaves
    the optimizer unchanged ([U'_f = q_r] at the fixed point); its
    magnitude sets how many Mbit/s the rate moves per slot, i.e. it
    matches the controller's dynamics to the Mbit/s scale of the
    problem. The default 50 reproduces the paper's observed ~90-slot
    convergence on residential networks.

    The proximal update moves x by O(α) per slot, so starting from
    zero the ramp to tens of Mbit/s takes thousands of slots. EMPoWER
    starts injection at the routing-estimated route rates [R(P)]
    instead (the source knows them from the multipath procedure),
    which is what makes the observed 90-slot convergence possible —
    pass those rates as [x_init]; the controller then only fine-tunes
    toward the utility optimum and resolves inter-flow contention.

    Every flow's report arrives in every slot. Lost acknowledgements
    are the packet engine's business (a fault plan's [Ctrl_drop]
    windows), not this fluid model's. *)

val solve_tracked :
  ?gain:float ->
  ?slots:int ->
  ?stop_tol:float ->
  ?x_init:float array ->
  on_slot:(int -> float array -> unit) ->
  Problem.t ->
  Cc_result.t
(** Same as {!solve}, invoking [on_slot t x] after every slot with the
    current per-route rates — used by the time-series experiments
    (Figure 9). [stop_tol] enables early termination: the loop ends
    once no flow rate has moved by more than [max tol (0.5%)] over 200
    slots (the tail of the trace is padded with the settled rates). *)
