(** Fluid approximation of the CSMA MAC: delivered goodput for given
    offered route rates.

    Used to evaluate schemes *without* congestion control (MP-w/o-CC,
    SP-w/o-CC) and the brute-force rate sweeps: traffic is injected at
    the offered rate on each route regardless of what the network can
    carry; links in overloaded collision domains serve proportionally
    to demand ("equal transmission opportunities" CSMA), and traffic
    dropped at hop k still consumed airtime at hops < k — the classic
    multihop congestion-collapse the paper's intro cites [11, 33].

    The model iterates the per-link demand / per-domain scaling fixed
    point to convergence; with EMPoWER-feasible rates (constraint (2)
    satisfied) it delivers exactly the offered rates. *)

val goodput :
  Multigraph.t -> Domain.t -> offered:(Paths.t * float) list -> float list
(** Delivered end-to-end rate of each (route, offered rate) pair, in
    order. The fixed-point loop runs 50 iterations; convergence is
    typically reached within ~10. Offered rates must be [>= 0]. *)
