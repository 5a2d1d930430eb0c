(** The flow utility of network utility maximization.

    The controller maximizes [Σ_f U(x_f)] for the paper's increasing,
    strictly concave proportional fairness [U(x) = log(1 + x)]: the
    one utility every controller, baseline and experiment of this
    repository optimizes. Rates are in Mbit/s. *)

type t = {
  name : string;
  u : float -> float;        (** U(x), defined for x >= 0 *)
  u' : float -> float;       (** U'(x) > 0, strictly decreasing *)
  u'_inv : float -> float;   (** inverse of U' extended with 0 beyond U'(0) *)
}

val proportional_fair : t
(** [U(x) = log(1 + x)]: the paper's throughput/fairness tradeoff.
    [U'(x) = 1/(1+x)], [U'^-1(q) = max 0 (1/q - 1)]. *)
