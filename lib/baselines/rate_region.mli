(** Airtime-feasibility polytopes as linear-program rows.

    Arc-flow formulation: one variable y_{f,l} >= 0 per (flow, usable
    directed link) gives the Mbit/s of flow f carried by link l. The
    flow value x_f is the net outflow at the flow's source. Two
    interference models bound the airtime:

    - {b Exact} (the paper's "optimal" centralized scheduler): one row
      per maximal clique c of the link-interference graph,
      [Σ_{l∈c} d_l Σ_f y_{f,l} <= 1 - δ]. For perfect interference
      graphs this is the exact schedulability region of a perfectly
      scheduled medium.
    - {b Conservative} (constraint (2), what EMPoWER enforces): one
      row per link l, [Σ_{l'∈I_l} d_{l'} Σ_f y_{f,l'} <= 1 - δ].
      Always a subset of the exact region.

    Conservation holds at every node except each flow's endpoints. *)

type model = Exact | Conservative

type t
(** A compiled region for one multigraph + flow list. *)

val build :
  ?delta:float -> model -> Multigraph.t -> Domain.t -> flows:(int * int) list -> t
(** Compile the region. Flows are (source, destination) pairs; [delta]
    defaults to 0. Requires distinct endpoints per flow. *)

val n_vars : t -> int
(** Number of LP variables. *)

val rows : t -> (float array * Simplex.op * float) list
(** All constraint rows (conservation equalities + airtime
    inequalities); variables are implicitly nonnegative. *)

val flow_value_coeffs : t -> int -> float array
(** Coefficient vector c with [c . y] = x_f (net outflow of flow [f]
    at its source). *)
