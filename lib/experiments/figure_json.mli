(** Machine-readable figures: every experiment's [data] rendered as an
    {!Obs.Json.t}, for the harness's [--json] output mode. The shapes
    mirror the records in each experiment's interface; each object
    carries a ["figure"] tag naming its source. *)

val fig4 : Fig4.data -> Obs.Json.t
val fig5 : Fig5.data -> Obs.Json.t
val fig6 : Fig6.data -> Obs.Json.t
val fig7 : Fig7.data -> Obs.Json.t
val convergence : Convergence.data -> Obs.Json.t
val fig9 : Fig9.data -> Obs.Json.t
val fig10 : Fig10.data -> Obs.Json.t
val fig11 : Fig11.data -> Obs.Json.t
val table1 : Table1.data -> Obs.Json.t
val fig12 : Fig12.data -> Obs.Json.t
val fig13 : Fig13.data -> Obs.Json.t
val metric_comparison : Metric_comparison.data -> Obs.Json.t
val mptcp : Mptcp_applicability.data -> Obs.Json.t
val mac_fairness : Mac_fairness.data -> Obs.Json.t
val ablation : Ablations.data -> Obs.Json.t
val loadsweep : Loadsweep.data -> Obs.Json.t

val loadsweep_point : Loadsweep.point -> Obs.Json.t
(** One element of the loadsweep figure's ["points"]: the per-point
    loads, counts and size buckets; the FCT samples are not written. *)

val loadsweep_of_json : Obs.Json.t -> (Loadsweep.data, string) result
(** The inverse of {!loadsweep}, with [fcts = []] in every point:
    [loadsweep (loadsweep_of_json j)] reprints [j] for every document
    {!loadsweep} wrote. *)

val buffers : Buffers.data -> Obs.Json.t

val print_json : Obs.Json.t -> unit
(** One compact line on stdout. *)
