(** Exact sums of runs of equal terms.

    A float sum that adds the same term [x] [n] times, one rounded
    addition at a time, does not need [n] additions to be reproduced
    bit for bit. Inside one binade [\[2^e, 2^(e+1))] of a positive
    running sum [a], the float grid step is [u = 2^(e-52)] and [a + x]
    rounds to the grid point nearest the exact sum. Unless [x] lies
    exactly halfway between two grid offsets (a tie, which
    round-half-to-even breaks by the sum's last bit), every addition
    that stays in the binade adds the same increment
    [δ = fl(a + x) - a], and that subtraction is exact. So the
    [k = ⌊(2^(e+1) - u - fl(a + x)) / δ⌋] additions that stay in the
    binade collapse into [fl(a + x) + kδ], which is exact too.

    {!add} adds the first 32 terms of a run plainly, then one addition
    enters each binade, one measures [δ] and one jump reaches the
    binade's last partial sum: a run of [n] terms costs O(log n)
    operations. Ties, a term that is not positive, and a running sum
    that is zero, negative, subnormal, infinite or NaN after those 32
    terms take plain additions, which are the definition. An addition
    that leaves the sum unchanged ([x = 0], or [x] below half a grid
    step) ends the run at once: every later addition would leave it
    unchanged too. *)

val add : float array -> int array -> float array -> int -> unit
(** [add values runs acc k] adds runs of terms to [acc.(k)], left to
    right. [runs] holds (index, count) pairs
    [\[| i0; n0; i1; n1; ... |\]]: [values.(i0)] added [n0] times, then
    [values.(i1)] added [n1] times, and so on. The result equals the
    left fold of those additions from the initial [acc.(k)], bit for
    bit, for every float input (signed zeros, subnormals, infinities
    and NaN included). Allocates nothing. *)
