(** Figure 11: per-flow average throughput and variability.

    Ten fixed testbed flows (the paper's pairs 4→19, 1→11, 17→1,
    19→3, 9→4, 11→5, 13→21, 11→15, 20→19, 7→6), each run
    packet-level under EMPoWER, MP-mWiFi and SP; we report the mean
    and standard deviation of the per-second throughput over the last
    100 s. Multipath reordering does not inflate the variance, and
    EMPoWER's coverage gain shows on the poor-connectivity flows. *)

type row = {
  flow : int * int;          (** 1-based paper node numbers *)
  empower : float * float;   (** mean, std *)
  mp_mwifi : float * float;
  sp : float * float;
}

type data = { rows : row list; seconds : int }

val run : ?seed:int -> ?duration:float -> ?jobs:int -> unit -> data
(** Default 200 s per run (statistics over the last 100 s), seed 11.
    [jobs] as in {!Fig4.run}: the ten rows fan out over a domain
    pool; bit-identical for any job count. *)

val print : data -> unit
