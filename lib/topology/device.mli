(** Heterogeneous device classes layered onto a sampled
    {!Builder.instance}.

    Real mixed-fieldbus deployments are not uniform: alongside
    full hybrid nodes they contain relay-only infrastructure that
    forwards but never originates traffic, legacy single-medium
    devices with only the primary WiFi radio, and PLC nodes
    constrained to a particular electrical panel. A device [spec]
    list declares those asymmetries per node and {!apply} rewrites
    an instance to honour them.

    {!apply} is a pure, deterministic {e mask}: it only removes
    capability (zeroes capacity-matrix entries), never invents it,
    and consumes no randomness — so layering device classes onto an
    instance keeps the instance's seeding contract intact, and an
    empty spec list is the identity. In particular a panel override
    can sever existing PLC pairs (the nodes now sit on different
    panels) but cannot create a PLC link where the original draw
    had none. *)

type cls =
  | Full  (** unrestricted hybrid node (the default for every node) *)
  | Legacy
      (** single-medium device: keeps only WiFi channel 1 — its
          second radio / PLC interface is removed ([dual] becomes
          [false]) *)
  | Relay
      (** relay-only infrastructure: full media capability, but the
          node never originates traffic — {!originates} is [false]
          and scenario validation rejects it as a flow endpoint *)

type spec = {
  node : int;
  cls : cls;
  panel : int option;
      (** when [Some p], the node's electrical panel is overridden to
          [p] before PLC masking — constraining which peers it can
          reach over the powerline medium *)
}

val cls_name : cls -> string
(** ["full"] | ["legacy"] | ["relay"]. *)

val cls_of_name : string -> cls option

val validate : Builder.instance -> spec list -> (unit, string) result
(** Node ids in range, no node listed twice, panels non-negative. *)

val apply : Builder.instance -> spec list -> Builder.instance
(** Rewrite the instance: apply class and panel overrides to the
    node records, then mask the capacity matrices — WiFi channel 2
    and PLC survive only between dual nodes, PLC only between
    same-panel pairs. Raises [Invalid_argument] on a spec list that
    {!validate} rejects. [apply inst []] returns an instance equal
    to [inst]. *)

val originates : spec list -> int -> bool
(** [false] iff the node is declared [Relay]. Nodes without a spec
    originate traffic. *)
