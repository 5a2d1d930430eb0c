open Obs

let f x = Json.Float x
let i x = Json.Int x
let s x = Json.String x
let flist xs = Json.List (List.map f xs)
let farr xs = Json.List (Array.to_list (Array.map (fun x -> f x) xs))
let mean_std (m, sd) = Json.Obj [ ("mean", f m); ("std", f sd) ]
let topo t = s (Common.topology_name t)

let fig4 (d : Fig4.data) =
  Json.Obj
    [
      ("figure", s "fig4");
      ("topology", topo d.Fig4.topology);
      ("runs", i d.Fig4.runs);
      ( "samples",
        Json.Obj
          (List.map
             (fun (sch, xs) -> (Schemes.name sch, flist xs))
             d.Fig4.samples) );
      ( "gains",
        Json.Obj
          (List.filter_map
             (fun (sch, _) ->
               if sch = Schemes.Empower then None
               else
                 Some
                   (Schemes.name sch, f (Fig4.gain d ~over:sch)))
             d.Fig4.samples) );
    ]

let fig5 (d : Fig5.data) =
  Json.Obj
    [
      ("figure", s "fig5");
      ("topology", topo d.Fig5.topology);
      ("runs", i d.Fig5.runs);
      ("ratios", flist d.Fig5.ratios);
      ("empower_only", i d.Fig5.empower_only);
      ("mwifi_only", i d.Fig5.mwifi_only);
      ("worst_count", i d.Fig5.worst_count);
    ]

let ratio_figure name topology runs ratios =
  Json.Obj
    [
      ("figure", s name);
      ("topology", topo topology);
      ("runs", i runs);
      ("ratios", Json.Obj (List.map (fun (k, xs) -> (k, flist xs)) ratios));
    ]

let fig6 (d : Fig6.data) = ratio_figure "fig6" d.Fig6.topology d.Fig6.runs d.Fig6.ratios
let fig7 (d : Fig7.data) = ratio_figure "fig7" d.Fig7.topology d.Fig7.runs d.Fig7.ratios

let convergence (d : Convergence.data) =
  Json.Obj
    [
      ("figure", s "convergence");
      ("topology", topo d.Convergence.topology);
      ("runs", i d.Convergence.runs);
      ("empower_cold", flist d.Convergence.empower_cold);
      ("empower_warm", flist d.Convergence.empower_warm);
      ("backpressure", flist d.Convergence.backpressure);
    ]

let fig9 (d : Fig9.data) =
  let t0, t1 = d.Fig9.contender_window in
  Json.Obj
    [
      ("figure", s "fig9");
      ( "series",
        Json.List
          (List.map
             (fun (p : Fig9.sample) ->
               Json.Obj
                 [
                   ("time", f p.Fig9.time);
                   ("route1_rate", f p.Fig9.route1_rate);
                   ("route2_rate", f p.Fig9.route2_rate);
                   ("total_rate", f p.Fig9.total_rate);
                   ("received", f p.Fig9.received);
                 ])
             d.Fig9.series) );
      ("best_single_path", f d.Fig9.best_single_path);
      ("contender_window", Json.List [ f t0; f t1 ]);
      ("mean_before", f d.Fig9.mean_before);
      ("mean_during", f d.Fig9.mean_during);
      ("mean_after", f d.Fig9.mean_after);
    ]

let fig10 (d : Fig10.data) =
  Json.Obj
    [
      ("figure", s "fig10");
      ("pairs", i d.Fig10.pairs);
      ( "ratios",
        Json.Obj (List.map (fun (k, xs) -> (k, flist xs)) d.Fig10.ratios) );
      ("early", flist d.Fig10.early);
      ("late", flist d.Fig10.late);
      ("spbf_ratio", flist d.Fig10.spbf_ratio);
    ]

let flow_pair (a, b) = Json.List [ i a; i b ]

let fig11 (d : Fig11.data) =
  Json.Obj
    [
      ("figure", s "fig11");
      ("seconds", i d.Fig11.seconds);
      ( "rows",
        Json.List
          (List.map
             (fun (r : Fig11.row) ->
               Json.Obj
                 [
                   ("flow", flow_pair r.Fig11.flow);
                   ("empower", mean_std r.Fig11.empower);
                   ("mp_mwifi", mean_std r.Fig11.mp_mwifi);
                   ("sp", mean_std r.Fig11.sp);
                 ])
             d.Fig11.rows) );
    ]

let table1 (d : Table1.data) =
  let cell (c : Table1.cell) =
    Json.Obj
      [ ("mean", f c.Table1.mean); ("std", f c.Table1.std); ("runs", i c.Table1.runs) ]
  in
  let pair name (cc, wo) = (name, Json.Obj [ ("empower", cell cc); ("wo_cc", cell wo) ]) in
  Json.Obj
    [
      ("figure", s "table1");
      pair "tiny" d.Table1.tiny;
      pair "short" d.Table1.short;
      pair "long" d.Table1.long_;
      pair "conc_main" d.Table1.conc_main;
      pair "conc_side" d.Table1.conc_side;
      ("long_bytes", i d.Table1.long_bytes);
    ]

let fig12 (d : Fig12.data) =
  Json.Obj
    [
      ("figure", s "fig12");
      ( "series",
        Json.List
          (List.map
             (fun (p : Fig12.sample) ->
               Json.Obj
                 [
                   ("time", f p.Fig12.time);
                   ("cc_route_rates", farr p.Fig12.cc_route_rates);
                   ("received", f p.Fig12.received);
                 ])
             d.Fig12.series) );
      ("phase_switch", f d.Fig12.phase_switch);
      ("mean_sp", f d.Fig12.mean_sp);
      ("mean_empower", f d.Fig12.mean_empower);
      ("delta", f d.Fig12.delta);
    ]

let fig13 (d : Fig13.data) =
  Json.Obj
    [
      ("figure", s "fig13");
      ("delta", f d.Fig13.delta);
      ( "rows",
        Json.List
          (List.map
             (fun (r : Fig13.row) ->
               Json.Obj
                 [
                   ("flow", flow_pair r.Fig13.flow);
                   ("empower", mean_std r.Fig13.empower);
                   ("sp_wo_cc", mean_std r.Fig13.sp_wo_cc);
                 ])
             d.Fig13.rows) );
    ]

let metric_comparison (d : Metric_comparison.data) =
  Json.Obj
    [
      ("figure", s "metric_comparison");
      ("topology", topo d.Metric_comparison.topology);
      ("runs", i d.Metric_comparison.runs);
      ( "mean_rate",
        Json.Obj (List.map (fun (k, v) -> (k, f v)) d.Metric_comparison.mean_rate) );
      ( "empower_wins",
        Json.Obj
          (List.map (fun (k, v) -> (k, f v)) d.Metric_comparison.empower_wins) );
    ]

let mptcp (d : Mptcp_applicability.data) =
  Json.Obj
    [
      ("figure", s "mptcp_applicability");
      ("pairs", i d.Mptcp_applicability.pairs);
      ("multipath_pairs", i d.Mptcp_applicability.multipath_pairs);
      ("mptcp_blocked", i d.Mptcp_applicability.mptcp_blocked);
      ("blocked_fraction", f d.Mptcp_applicability.blocked_fraction);
    ]

let mac_fairness (d : Mac_fairness.data) =
  let mac (r : Csma.result) =
    Json.Obj
      [
        ("throughput", f r.Csma.throughput);
        ("collision_rate", f r.Csma.collision_rate);
        ("jain", f r.Csma.jain);
        ("service_cv", f r.Csma.service_cv);
        ( "per_station",
          Json.List (Array.to_list (Array.map (fun n -> i n) r.Csma.per_station)) );
      ]
  in
  Json.Obj
    [
      ("figure", s "mac_fairness");
      ("slots", i d.Mac_fairness.slots);
      ( "rows",
        Json.List
          (List.map
             (fun (r : Mac_fairness.row) ->
               Json.Obj
                 [
                   ("n_stations", i r.Mac_fairness.n_stations);
                   ("wifi", mac r.Mac_fairness.wifi);
                   ("plc", mac r.Mac_fairness.plc);
                 ])
             d.Mac_fairness.rows) );
    ]

let ablation (d : Ablations.data) =
  Json.Obj
    [
      ("figure", s ("ablation:" ^ d.Ablations.name));
      ("aux_label", s d.Ablations.aux_label);
      ("runs", i d.Ablations.runs);
      ( "points",
        Json.List
          (List.map
             (fun (p : Ablations.point) ->
               Json.Obj
                 [
                   ("label", s p.Ablations.label);
                   ("mean_rate", f p.Ablations.mean_rate);
                   ("mean_aux", f p.Ablations.mean_aux);
                 ])
             d.Ablations.points) );
    ]

let loadsweep_point (p : Loadsweep.point) =
  let bucket (b : Loadsweep.bucket) =
    Json.Obj
      [
        ("label", s b.Loadsweep.label);
        ("count", i b.Loadsweep.count);
        ("p50", f b.Loadsweep.p50);
        ("p95", f b.Loadsweep.p95);
        ("p99", f b.Loadsweep.p99);
      ]
  in
  Json.Obj
    [
      ("load", f p.Loadsweep.load);
      ("offered_load", f p.Loadsweep.offered_load);
      ("achieved_load", f p.Loadsweep.achieved_load);
      ("arrivals", i p.Loadsweep.arrivals);
      ("completed", i p.Loadsweep.completed);
      ("queue_drops", i p.Loadsweep.queue_drops);
      ("buckets", Json.List (List.map bucket p.Loadsweep.buckets));
    ]

let loadsweep (d : Loadsweep.data) =
  Json.Obj
    [
      ("figure", s "loadsweep");
      ("seed", i d.Loadsweep.seed);
      ("pairs", i d.Loadsweep.pairs);
      ("conns", i d.Loadsweep.conns);
      ("duration", f d.Loadsweep.duration);
      ("drain", f d.Loadsweep.drain);
      ("capacity_mbps", f d.Loadsweep.capacity_mbps);
      ("pacing", s (Workload.pacing_name d.Loadsweep.pacing));
      ("cdf", s d.Loadsweep.cdf);
      ("points", Json.List (List.map loadsweep_point d.Loadsweep.points));
    ]

let ( let* ) = Result.bind

let loadsweep_of_json j =
  let bucket b =
    let* label = Json.string_field "label" b in
    let* count = Json.int_field "count" b in
    let* p50 = Json.float_field "p50" b in
    let* p95 = Json.float_field "p95" b in
    let* p99 = Json.float_field "p99" b in
    Ok { Loadsweep.label; count; p50; p95; p99 }
  in
  let point p =
    let* load = Json.float_field "load" p in
    let* offered_load = Json.float_field "offered_load" p in
    let* achieved_load = Json.float_field "achieved_load" p in
    let* arrivals = Json.int_field "arrivals" p in
    let* completed = Json.int_field "completed" p in
    let* queue_drops = Json.int_field "queue_drops" p in
    let* buckets = Json.list_field "buckets" bucket p in
    Ok
      {
        Loadsweep.load; offered_load; achieved_load; arrivals; completed;
        queue_drops; buckets; fcts = [];
      }
  in
  let* seed = Json.int_field "seed" j in
  let* pairs = Json.int_field "pairs" j in
  let* conns = Json.int_field "conns" j in
  let* duration = Json.float_field "duration" j in
  let* drain = Json.float_field "drain" j in
  let* capacity_mbps = Json.float_field "capacity_mbps" j in
  let* pacing_s = Json.string_field "pacing" j in
  let* pacing =
    match Workload.pacing_of_name pacing_s with
    | Some p -> Ok p
    | None -> Error (Printf.sprintf "unknown pacing %S" pacing_s)
  in
  let* cdf = Json.string_field "cdf" j in
  let* points = Json.list_field "points" point j in
  Ok
    {
      Loadsweep.seed; pairs; conns; duration; drain; capacity_mbps; pacing; cdf;
      points;
    }

let buffers (d : Buffers.data) =
  let variant (v : Buffers.variant_result) =
    Json.Obj
      [
        ("variant", s v.Buffers.variant);
        ("goodput_mbps", f v.Buffers.goodput_mbps);
        ("queue_drops", i v.Buffers.queue_drops);
        ("ecn_marks", i v.Buffers.ecn_marks);
        ("buffer_peak_bytes", i v.Buffers.buffer_peak_bytes);
        ("frames_lost", i v.Buffers.frames_lost);
      ]
  in
  Json.Obj
    [
      ("figure", s "buffers");
      ("seed", i d.Buffers.seed);
      ("duration", f d.Buffers.duration);
      ("frame_bytes", i d.Buffers.frame_bytes);
      ("pools", Json.List (List.map i d.Buffers.pools));
      ("alphas", Json.List (List.map f d.Buffers.alphas));
      ("ecns", Json.List (List.map i d.Buffers.ecns));
      ( "points",
        Json.List
          (List.map
             (fun (p : Buffers.point) ->
               Json.Obj
                 [
                   ("pool_frames", i p.Buffers.pool_frames);
                   ("dt_alpha", f p.Buffers.dt_alpha);
                   ("ecn_frames", i p.Buffers.ecn_frames);
                   ( "variants",
                     Json.List (List.map variant p.Buffers.variants) );
                 ])
             d.Buffers.points) );
    ]

let print_json j = print_endline (Json.to_string j)
