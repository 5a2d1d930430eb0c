(** Figure 13: average TCP rate over ten testbed flows.

    The paper's pairs (9→10, 4→7, 21→18, 8→6, 17→15, 9→13, 4→5,
    20→17, 3→6, 13→7), each downloading over TCP: EMPoWER (two routes
    where available, δ = 0.3, delay equalization) vs plain single-path
    TCP (SP-w/o-CC). δ = 0.3 improves performance in all cases with
    no general variance increase. *)

type row = {
  flow : int * int;
  empower : float * float;  (** mean, std of per-second TCP goodput *)
  sp_wo_cc : float * float;
}

type data = { rows : row list; delta : float }

val run : ?seed:int -> ?duration:float -> ?delta:float -> ?jobs:int -> unit -> data
(** Default 150 s per run (statistics skip the first 30 s), δ = 0.3,
    seed 14. [jobs] as in {!Fig4.run}: the ten rows fan out over a
    domain pool; bit-identical for any job count. *)

val print : data -> unit
