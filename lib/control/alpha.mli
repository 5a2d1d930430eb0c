(** The paper's step-size heuristic (Section 6.1).

    The controller uses a fixed step size α to keep adapting to
    network changes; the heuristic picks its magnitude from route
    length (short routes tolerate a larger α) and backs off when the
    rate oscillates:

    - α starts at 0.02;
    - x2 when the flow is single-path or its longest route has two
      hops; x4 when the longest route has one hop;
    - whenever 6 or more oscillations with non-decreasing amplitude
      are observed on the flow rate, α is halved. *)

type t
(** Mutable per-controller step-size state. *)

val base : float
(** The paper's step size, 0.02: where the heuristic starts, the
    constant step of the fluid solvers ({!Multi_cc}, {!Single_cc}) and
    the step of the packet engine's dual update. *)

val initial : single_path:bool -> longest_route_hops:int -> float
(** The initial α from the route-shape rule above. *)

val create : single_path:bool -> longest_route_hops:int -> t
(** Fresh state at {!initial}. *)

val current : t -> float
(** The α to use this slot. *)

val observe : t -> float -> unit
(** Feed the current aggregate rate (one sample per slot); may halve
    α when the oscillation rule triggers. *)
