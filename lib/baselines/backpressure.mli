(** Slotted backpressure / max-weight dynamics (Neely et al. [27]).

    The paper's Section 5.2.2 notes that although backpressure is
    throughput-optimal at steady state, good routes are only used
    after queues on bad routes fill up, so convergence takes
    thousands of slots (vs ~90 for EMPoWER). This module implements
    the dynamic to measure exactly that:

    - per-(node, flow) queues (in Mbit);
    - drift-plus-penalty admission at each source:
      [a_f = U'^-1(Q_{s_f,f} / V)] clamped to [0, a_max];
    - max-weight scheduling each slot: links weighted by
      [c_l * max_f (Q_u,f - Q_v,f)+], activated greedily subject to
      non-interference (greedy maximal-weight independent set — the
      practical surrogate for the NP-hard exact max-weight problem
      [13]);
    - destination queues drain instantly.

    Throughput per flow is the delivered rate smoothed over a sliding
    window; convergence is measured exactly as for the controller
    (within 1% of the final value, 0.01 Mbps floor). *)

type result = {
  flow_rates : float array;   (** final smoothed delivered rates (Mbit/s per slot unit) *)
  trace : float array array;  (** smoothed delivered rates after each slot *)
  slots : int;
  convergence_slot : int option;
}

val run : ?slots:int -> Multigraph.t -> Domain.t -> flows:(int * int) list -> result
(** Run the dynamic for [slots] slots (default 20000) under
    proportional-fair utility, with utility weight [V = 300] (larger
    is closer to optimal but slower), a 200 Mbps admission cap and
    200 slots of smoothing. *)
