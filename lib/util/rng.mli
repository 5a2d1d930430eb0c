(** Deterministic, splittable pseudo-random number generator.

    All randomness in the repository flows through this module so that
    every simulation, topology draw and experiment is reproducible from
    a single integer seed. The core generator is SplitMix64, which is
    fast, has a 64-bit state, and supports cheap splitting: [split t]
    yields an independent stream, which lets parallel experiment runs
    share a master seed without correlation. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. Equal
    seeds produce equal streams. *)

val split : t -> t
(** [split t] derives a new, statistically independent generator and
    advances [t]. Used to give each run of a multi-run experiment its
    own stream. *)

val copy : t -> t
(** [copy t] duplicates the current state without advancing [t]. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** [float t] draws uniformly in [0, 1). *)

val bits53 : t -> int
(** The top 53 bits of the next raw draw, in [0, 2^53): [float t] is
    exactly [float_of_int (bits53 t) *. 0x1p-53], so a hot loop can
    scale the int itself and skip the boxed float a call from another
    module returns. *)

val uniform : t -> float -> float -> float
(** [uniform t lo hi] draws uniformly in [lo, hi). Requires [lo <= hi]. *)

val int : t -> int -> int
(** [int t n] draws uniformly in [0, n-1]. Requires [n > 0]. *)

val bool : t -> bool
(** Fair coin flip. *)

val gaussian : t -> mean:float -> std:float -> float
(** Normal variate via the Box–Muller transform. *)

val exponential : t -> rate:float -> float
(** Exponential variate with the given rate (mean [1 /. rate]).
    Requires [rate > 0]. *)

val pick : t -> 'a array -> 'a
(** Uniform draw from a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_without_replacement : t -> int -> int -> int list
(** [sample_without_replacement t k n] draws [k] distinct integers from
    [0..n-1]. Requires [k <= n]. *)
