(** Interference domains I_l (Section 2).

    The interference domain of link [l] contains [l] itself and every
    link that cannot transmit simultaneously with [l]. Both WiFi
    (802.11 CSMA/CA) and PLC (IEEE 1901 CSMA/CA) are shared mediums,
    so interference exists within each technology and never across
    technologies:

    - two WiFi links on the same channel interfere when any endpoint
      of one senses any endpoint of the other (perfect carrier
      sensing, range = carrier-sense factor x connection radius);
    - all PLC links under the same central coordinator (same
      electrical panel) form one collision domain [IEEE 1901];
    - the two directions of a physical edge always interfere.

    A {!t} is precomputed once per multigraph and queried by routing,
    congestion control, the optimal baselines and the MAC simulator. *)

type t
(** Symmetric interference structure over the links of one multigraph. *)

val create : Multigraph.t -> interferes:(int -> int -> bool) -> t
(** Build from an explicit pairwise predicate (symmetrized; peers and
    self are always included). *)

val standard :
  ?cs_factor:float ->
  Multigraph.t ->
  techs:Technology.t array ->
  positions:Geometry.point array ->
  panels:int array ->
  t
(** The physical model described above. [cs_factor] (default 1.5)
    scales each WiFi technology's connection radius into its
    carrier-sense radius. [positions] and [panels] are indexed by node
    id; [techs] by technology index. Each WiFi technology tabulates
    the node pairs within its carrier-sense range once (a node is in
    range of itself), and each same-technology link pair is tested
    once, with four table reads. *)

val of_instance : Builder.instance -> Builder.scenario -> Multigraph.t -> t
(** Convenience: {!standard} wired to a topology instance's positions
    and panels, with the scenario's technology table. *)

val single_domain_per_tech : Multigraph.t -> t
(** Every pair of same-technology links interferes — the small-network
    limit (used by unit tests and the paper's illustrating examples,
    e.g. Figure 3's "all links using the same medium interfere"). *)

val interferes : t -> int -> int -> bool
(** [interferes t l l'] — symmetric; [interferes t l l = true]. One
    bit test. *)

val domain : t -> int -> int array
(** I_l: the sorted ids of links interfering with [l] (includes [l]).
    The array is the structure's own, shared by every caller and by
    every twin of [l] ({!twin}); treat it as read-only. *)

val twin : t -> int -> int
(** [twin t l] is the twin class of [l]: [twin t l = twin t l'] exactly
    when I_l = I_l', and then [domain t l == domain t l'] (one array
    per class). Classes are numbered [0 .. n_twins t - 1] in order of
    their lowest link. Any computation that depends on a link only
    through I_l — a sum over I_l, a restriction of it — can be done
    once per class: on the 22-node testbed the 616 links fall into 4
    classes, and under {!single_domain_per_tech} there is one class per
    technology in use. *)

val n_twins : t -> int
(** Number of twin classes, i.e. of distinct I_l. *)

val restrict : t -> bool array -> int -> int array
(** [restrict t mem l] is I_l ∩ \{i | [mem.(i)]\}, in domain
    (ascending) order — the per-run views of a domain that keep only
    the links a computation can touch. The result is a fresh array. *)

val num_links : t -> int
(** Number of links covered. *)

val graph_cliques : t -> int list list
(** Maximal cliques of the link-interference graph (via
    {!Clique.bron_kerbosch}); the exact airtime constraints of the
    centralized optimal scheduler are one inequality per clique. *)
