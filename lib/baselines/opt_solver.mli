(** The centralized optimal baselines of Section 5.2.2.

    "optimal" is the utility/throughput optimum over the exact
    (clique) airtime polytope — what the backpressure scheme of Neely
    et al. [27] achieves at steady state with a perfect centralized
    scheduler. "conservative opt" is the optimum under EMPoWER's
    conservative per-link constraint (2). Both are computed exactly:

    - single-flow maximum throughput is a linear program over the
      arc-flow region ({!Simplex});
    - multi-flow utility maximization is concave over the same
      polytope and is solved by Frank–Wolfe with the LP as linear
      oracle and golden-section line search.

    Comparing EMPoWER to "conservative opt" isolates the quality of
    the multipath route selection (both use (2)); comparing to
    "optimal" adds the cost of conservatism. *)

val max_throughput :
  ?delta:float ->
  Rate_region.model ->
  Multigraph.t ->
  Domain.t ->
  src:int ->
  dst:int ->
  float
(** The maximum rate of a single flow with optimal (fractional,
    multipath) routing under the chosen interference model. 0 when
    the destination is unreachable. *)

val max_utility :
  ?delta:float ->
  Rate_region.model ->
  Multigraph.t ->
  Domain.t ->
  flows:(int * int) list ->
  float array
(** Proportionally fair ({!Utility.proportional_fair}) flow rates for
    several concurrent flows, after at most 200 Frank–Wolfe
    iterations — enough for < 0.1% objective error on paper-scale
    networks. *)
