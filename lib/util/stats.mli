(** Descriptive statistics and empirical distributions.

    The evaluation section of the paper reports empirical CDFs of
    throughput and throughput ratios; this module provides the
    summaries (mean, standard deviation, percentiles) and the
    {!Ecdf} type used by every figure reproduction. *)

val mean : float list -> float
(** Arithmetic mean; 0 on the empty list. *)

val stddev : float list -> float
(** Population standard deviation; 0 on lists shorter than 2. *)

val minimum : float list -> float
(** Smallest element. Raises [Invalid_argument] on the empty list. *)

val maximum : float list -> float
(** Largest element. Raises [Invalid_argument] on the empty list. *)

val percentile : float list -> float -> float
(** [percentile xs p] with [p] in [0,100], linear interpolation between
    order statistics. Raises [Invalid_argument] on the empty list. *)

val median : float list -> float
(** 50th percentile. *)

module Ecdf : sig
  type t
  (** Empirical cumulative distribution function of a finite sample. *)

  val of_list : float list -> t
  (** Build from a sample. Raises [Invalid_argument] on the empty list. *)

  val eval : t -> float -> float
  (** [eval t x] is the fraction of sample points [<= x]. *)

  val support : t -> float * float
  (** Smallest and largest sample values. *)
end

val fraction_below : float list -> float -> float
(** [fraction_below xs x] is the fraction of values strictly below [x];
    0 on the empty list. *)

val fraction_at_least : float list -> float -> float
(** Fraction of values [>= x]; 0 on the empty list. *)
