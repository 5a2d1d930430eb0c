(* Unified run-report renderer: one command turns any artifact the
   harness produces — a JSONL trace, a loadsweep figure, a profile, a
   scenario scorecard — into the same text + JSON health report. See
   report.mli for the SLO definitions. *)

type flow_slo = {
  stats : Obs.Summary.flow_stats;
  lp_bound_mbps : float;
  bound_ratio : float;
}

type trace = {
  summary : Obs.Summary.t;
  slos : flow_slo list;
}

type source =
  | Trace of trace
  | Sweep of Loadsweep.data
  | Profile of Obs.Prof.document
  | Scenario of Scenario.scorecard

type t = { path : string; source : source }

(* --- SLO computation --- *)

(* The controller's final rate vector is the LP allocation the flow
   converged to; its sum is the goodput the optimization promised.
   0 when the trace carried no rate update (then no bound is known). *)
let slo_of_stats (st : Obs.Summary.flow_stats) =
  let bound = Array.fold_left ( +. ) 0.0 st.Obs.Summary.final_rates in
  {
    stats = st;
    lp_bound_mbps = bound;
    bound_ratio =
      (if bound > 0.0 then st.Obs.Summary.goodput_mbps /. bound else Float.nan);
  }

let trace_of_summary summary =
  { summary; slos = List.map slo_of_stats summary.Obs.Summary.flows }

let bucket_p99 (pt : Loadsweep.point) label =
  List.find_map
    (fun (b : Loadsweep.bucket) ->
      if b.label = label && b.count > 0 then Some b.p99 else None)
    pt.buckets

(* p99 FCT of the all-sizes bucket must not improve as load grows —
   the sweep's built-in sanity SLO (same check the loadsweep tests
   pin, minus the tolerance: here a violation is only flagged). *)
let sweep_p99_monotone (s : Loadsweep.data) =
  let rec go prev = function
    | [] -> true
    | pt :: rest -> (
      match bucket_p99 pt "all" with
      | None -> go prev rest
      | Some p99 -> (
        match prev with
        | Some p when p99 < p -> false
        | _ -> go (Some p99) rest))
  in
  go None s.points

(* --- parsing --- *)

let ( let* ) = Result.bind

(* The first line of [path], without its newline ("" for an empty
   file): enough to tell a trace from a figure, so a trace is read
   once, by [Obs.Summary.read_file]. Errors read like
   [Obs.Json.read_file]'s. *)
let first_line path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match input_line ic with
        | line -> Ok line
        | exception End_of_file -> Ok ""
        | exception Sys_error e -> Error (path ^ ": " ^ e))

let of_trace_file ?duration path =
  let* events = Obs.Summary.read_file path in
  let* duration =
    match duration with
    | Some d when d > 0.0 -> Ok d
    | Some _ -> Error "report: duration must be positive"
    | None -> (
      (* Without an explicit horizon, report over the trace's own
         span (last event time). *)
      match events with
      | [] -> Error (path ^ ": empty trace (pass an explicit duration)")
      | evs ->
        Ok (List.fold_left (fun a e -> Float.max a (Obs.Trace.time e)) 0.0 evs))
  in
  if duration <= 0.0 then Error (path ^ ": trace spans zero time")
  else
    Ok
      {
        path;
        source = Trace (trace_of_summary (Obs.Summary.of_events ~duration events));
      }

let of_file ?duration path =
  let in_file r = Result.map_error (fun e -> path ^ ": " ^ e) r in
  let* line = first_line path in
  let line = String.trim line in
  if line = "" then Error (path ^ ": empty file")
  else
    let* j = in_file (Obs.Json.parse line) in
    match Obs.Json.member "ev" j with
    | Some _ -> of_trace_file ?duration path
    | None -> (
      (* Single-document figure: the whole file is one JSON value. *)
      let* content = Obs.Json.read_file path in
      let* j = in_file (Obs.Json.parse content) in
      let figure =
        Option.bind (Obs.Json.member "figure" j) Obs.Json.to_string_opt
      in
      let* source =
        in_file
          (match figure with
          | Some "loadsweep" ->
            Result.map (fun sw -> Sweep sw) (Figure_json.loadsweep_of_json j)
          | Some "profile" ->
            Result.map (fun p -> Profile p) (Obs.Prof.document_of_json j)
          | Some "scenario" ->
            Result.map (fun sc -> Scenario sc) (Scenario.of_json j)
          | Some other -> Error (Printf.sprintf "unsupported figure %S" other)
          | None ->
            Error "not a trace (no \"ev\"), nor a figure document (no \"figure\")")
      in
      Ok { path; source })

(* --- rendering --- *)

let i n = Obs.Json.Int n
let f x = Obs.Json.Float x
let s x = Obs.Json.String x

let trace_json (tr : trace) =
  let sm = tr.summary in
  let flow (slo : flow_slo) =
    let st = slo.stats in
    Obs.Json.Obj
      [
        ("flow", i st.Obs.Summary.flow);
        ("delivered_frames", i st.Obs.Summary.delivered_frames);
        ("delivered_bytes", i st.Obs.Summary.delivered_bytes);
        ("goodput_mbps", f st.Obs.Summary.goodput_mbps);
        ("lp_bound_mbps", f slo.lp_bound_mbps);
        ("bound_ratio", f slo.bound_ratio);
        ("p50_delay", f st.Obs.Summary.p50_delay);
        ("p95_delay", f st.Obs.Summary.p95_delay);
        ("p99_delay", f st.Obs.Summary.p99_delay);
        ("max_delay", f st.Obs.Summary.max_delay);
      ]
  in
  let r = sm.Obs.Summary.recovery in
  [
    ("duration", f sm.Obs.Summary.duration);
    ("events", i sm.Obs.Summary.events);
    ("flows", Obs.Json.List (List.map flow tr.slos));
    ( "drops",
      Obs.Json.Obj
        (List.map
           (fun (reason, n) -> (Obs.Trace.drop_reason_name reason, i n))
           sm.Obs.Summary.drops) );
    ("collisions", i sm.Obs.Summary.collisions);
    ("grants", i sm.Obs.Summary.grants);
    ( "recovery",
      Obs.Json.Obj
        [
          ("route_deaths", i r.Obs.Summary.route_deaths);
          ("route_restores", i r.Obs.Summary.route_restores);
          ("route_probes", i r.Obs.Summary.route_probes);
          ("price_resets", i r.Obs.Summary.price_resets);
          ("max_detect_s", f r.Obs.Summary.max_detect_s);
          ("max_down_s", f r.Obs.Summary.max_down_s);
        ] );
  ]

let sweep_json (sw : Loadsweep.data) =
  [
    ("seed", i sw.seed);
    ("capacity_mbps", f sw.capacity_mbps);
    ("duration", f sw.duration);
    ("p99_monotone", Obs.Json.Bool (sweep_p99_monotone sw));
    ("points", Obs.Json.List (List.map Figure_json.loadsweep_point sw.points));
  ]

let profile_json (p : Obs.Prof.document) =
  [
    ("events", i p.total_events);
    ("wall_s", f p.attributed_s);
    ("hotspots", Obs.Json.List (List.map Obs.Prof.entry_to_json p.entries));
  ]

let scenario_json (sc : Scenario.scorecard) =
  let spec = sc.spec in
  let flow (fw : Scenario.flow_score) =
    Obs.Json.Obj
      [
        ("flow", i fw.flow);
        ("src", i fw.src);
        ("dst", i fw.dst);
        ("baseline_mbps", f fw.baseline_mbps);
        ("goodput_mbps", f fw.goodput_mbps);
        ("availability", f fw.availability);
        ("below_slo_s", f fw.below_slo_s);
        ("reroutes", i fw.reroutes);
        ("route_deaths", i fw.route_deaths);
        ("route_restores", i fw.route_restores);
        ("outage_s", f fw.outage_s);
      ]
  in
  [
    ("name", s spec.name);
    ("seed", i spec.seed);
    ("duration", f spec.duration);
    ( "slo",
      Obs.Json.Obj
        [
          ("availability_frac", f spec.slo.availability_frac);
          ("min_availability", f spec.slo.min_availability);
        ] );
    ("min_availability", f sc.min_availability_measured);
    ("slo_met", Obs.Json.Bool sc.slo_met);
    ("route_deaths", i sc.route_deaths);
    ("probes", i sc.probes);
    ("queue_drops", i sc.queue_drops);
    ("fault_events", i sc.fault_events);
    ("flows", Obs.Json.List (List.map flow sc.flows));
    ( "events",
      Obs.Json.List (List.map Scenario.event_score_to_json sc.events) );
  ]

let to_json t =
  let source_name, payload =
    match t.source with
    | Trace tr -> ("trace", trace_json tr)
    | Sweep sw -> ("loadsweep", sweep_json sw)
    | Profile p -> ("profile", profile_json p)
    | Scenario sc -> ("scenario", scenario_json sc)
  in
  Obs.Json.Obj
    (("figure", s "report") :: ("source", s source_name) :: ("path", s t.path)
    :: payload)

let ms x = x *. 1e3

let print_trace out path (tr : trace) =
  let pr fmt = Printf.fprintf out fmt in
  let sm = tr.summary in
  pr "=== run report: %s (trace, %d events, %.3f s) ===\n" path
    sm.Obs.Summary.events sm.Obs.Summary.duration;
  pr "SLOs:\n";
  List.iter
    (fun (slo : flow_slo) ->
      let st = slo.stats in
      pr "  flow %d: goodput %.3f Mbit/s" st.Obs.Summary.flow
        st.Obs.Summary.goodput_mbps;
      if slo.lp_bound_mbps > 0.0 then
        pr " vs LP bound %.3f (%.1f%%)" slo.lp_bound_mbps
          (100.0 *. slo.bound_ratio);
      if st.Obs.Summary.delivered_frames > 0 then
        pr ", delay p50/p95/p99 %.2f/%.2f/%.2f ms"
          (ms st.Obs.Summary.p50_delay)
          (ms st.Obs.Summary.p95_delay)
          (ms st.Obs.Summary.p99_delay);
      pr "\n")
    tr.slos;
  let r = sm.Obs.Summary.recovery in
  if r.Obs.Summary.route_deaths > 0 || r.Obs.Summary.route_probes > 0 then
    pr
      "severance: %d route deaths, %d restores, %d probes, %d price resets, \
       worst detect %.3f s, worst outage %.3f s\n"
      r.Obs.Summary.route_deaths r.Obs.Summary.route_restores
      r.Obs.Summary.route_probes r.Obs.Summary.price_resets
      r.Obs.Summary.max_detect_s r.Obs.Summary.max_down_s;
  pr "counters: collisions %d, grants %d" sm.Obs.Summary.collisions
    sm.Obs.Summary.grants;
  List.iter
    (fun (reason, n) -> pr ", %s %d" (Obs.Trace.drop_reason_name reason) n)
    sm.Obs.Summary.drops;
  pr "\n"

let print_sweep out path (sw : Loadsweep.data) =
  let pr fmt = Printf.fprintf out fmt in
  pr "=== run report: %s (loadsweep, seed %d, %.0f Mbit/s capacity) ===\n" path
    sw.seed sw.capacity_mbps;
  List.iter
    (fun (pt : Loadsweep.point) ->
      pr
        "load %.2f: offered %.3f, achieved %.3f, completed %d/%d, queue drops \
         %d\n"
        pt.load pt.offered_load pt.achieved_load pt.completed pt.arrivals
        pt.queue_drops;
      pr "  p99 FCT:";
      List.iter
        (fun (b : Loadsweep.bucket) ->
          if b.count > 0 then pr " %s %.1f ms (n=%d)" b.label (ms b.p99) b.count)
        pt.buckets;
      pr "\n")
    sw.points;
  pr "p99(all) monotone nondecreasing in load: %s\n"
    (if sweep_p99_monotone sw then "yes" else "NO — inspect the sweep")

let print_profile out path (p : Obs.Prof.document) =
  Printf.fprintf out
    "=== run report: %s (profile, %d events, %.4f s attributed) ===\n" path
    p.total_events p.attributed_s;
  Obs.Prof.print_entries ~out p.entries

let print_scenario out path (sc : Scenario.scorecard) =
  let pr fmt = Printf.fprintf out fmt in
  let spec = sc.spec in
  pr "=== run report: %s (scenario %S, seed %d, %.1f s) ===\n" path spec.name
    spec.seed spec.duration;
  pr "SLO: min availability %.1f%% vs threshold %.1f%% (bins >= %.0f%% of \
      fault-free baseline) -> %s\n"
    (100.0 *. sc.min_availability_measured)
    (100.0 *. spec.slo.min_availability)
    (100.0 *. spec.slo.availability_frac)
    (if sc.slo_met then "PASS" else "FAIL");
  List.iter
    (fun (fw : Scenario.flow_score) ->
      pr
        "  flow %d (%d -> %d): availability %.1f%% (%.0f s below SLO), \
         goodput %.3f vs baseline %.3f Mbit/s, %d deaths / %d restores, \
         outage %.1f s, %d reroutes\n"
        fw.flow fw.src fw.dst
        (100.0 *. fw.availability)
        fw.below_slo_s fw.goodput_mbps fw.baseline_mbps fw.route_deaths
        fw.route_restores fw.outage_s fw.reroutes)
    sc.flows;
  if sc.events <> [] then begin
    pr "churn events:\n";
    List.iter
      (fun (e : Scenario.event_score) ->
        pr "  %-16s at %6.2f  clear %6.2f  dip %8.3f Mbit/s  recover %s\n" e.op
          e.at e.clear e.dip_mbps
          (if e.recover_s < 0.0 then "never"
           else Printf.sprintf "%.2f s" e.recover_s))
      sc.events
  end;
  pr "counters: %d route deaths, %d probes, %d queue drops, %d fault events\n"
    sc.route_deaths sc.probes sc.queue_drops sc.fault_events

let print ?(out = stdout) t =
  match t.source with
  | Trace tr -> print_trace out t.path tr
  | Sweep sw -> print_sweep out t.path sw
  | Profile p -> print_profile out t.path p
  | Scenario sc -> print_scenario out t.path sc
