(** Slot-accurate CSMA/CA in a single collision domain:
    IEEE 802.11 DCF vs IEEE 1901 (HomePlug).

    The paper's footnote 4 notes that "to avoid collisions, IEEE 1901
    employs a CSMA/CA scheme relatively similar to that of 802.11"
    and leans on the authors' own MAC study [40] (Vlachou et al.,
    "Fairness of MAC protocols: IEEE 1901 vs 802.11"). This module
    reproduces that comparison at slot granularity for N saturated
    stations sharing one medium:

    - {b 802.11 DCF}: uniform backoff in [0, CW-1]; CW doubles on
      collision (CWmin 16 to CWmax 1024) and resets on success.
    - {b IEEE 1901}: four backoff stages with contention windows
      8/16/32/64 {e and a deferral counter} (DC = 0/1/3/15 per
      stage): a station that senses the medium busy more than DC
      times moves to the next stage {e without} colliding — 1901
      backs off earlier than 802.11, trading short-term fairness for
      fewer collisions under load, which is [40]'s headline finding.

    The engine-level simulator uses an abstracted MAC (perfect
    sensing + a contention-loss probability); this module is the
    ground-truth justification for that abstraction's shape and an
    ablation substrate of its own. *)

type protocol =
  | Dcf_80211
  | Csma_1901

type result = {
  throughput : float;       (** fraction of slots spent on successful frames *)
  collision_rate : float;   (** collisions / transmission attempts *)
  jain : float;             (** Jain fairness index over per-station successes *)
  per_station : int array;  (** successful frames per station *)
  service_cv : float;       (** mean coefficient of variation of a station's
                                inter-success gaps: short-term (un)fairness *)
}

val simulate :
  ?slots:int ->
  ?frame_slots:int ->
  Rng.t ->
  protocol ->
  n_stations:int ->
  result
(** Simulate [slots] medium slots (default 200000) with saturated
    stations sending frames of [frame_slots] slots (default 20 —
    roughly a 1-2 ms aggregate over 50 µs slots). Requires
    [n_stations >= 1]. *)
