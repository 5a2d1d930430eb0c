(* Command-line driver that regenerates every table and figure of the
   paper's evaluation. `empower_eval <experiment> [--runs N] [--seed S]`;
   `empower_eval all` runs the full suite with default sizes.

   Observability: every experiment command takes `--json` (machine-
   readable figures, one JSON object per line on stdout) and
   `--metrics` (collect engine metrics during the runs, dump the
   registry summary to stderr afterwards); `empower_eval trace
   <scenario> --out trace.jsonl` records a full JSONL event trace of a
   reference scenario and self-validates it: the file is re-read with
   the strict decoder and replayed through Obs.Summary, which must
   reproduce the engine's own accounting (non-zero exit otherwise). *)

open Cmdliner

let runs_arg default =
  let doc = Printf.sprintf "Number of runs/instances (default %d)." default in
  Arg.(value & opt int default & info [ "runs"; "r" ] ~docv:"N" ~doc)

let seed_arg default =
  let doc = "Random seed (experiments are deterministic given the seed)." in
  Arg.(value & opt int default & info [ "seed"; "s" ] ~docv:"SEED" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the parallel replication executor (default: \
     $(b,EMPOWER_JOBS), else 1). Results are bit-identical for any value; \
     1 runs fully sequentially in the calling domain."
  in
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let json_arg =
  let doc =
    "Emit the figure as machine-readable JSON on stdout (one object per \
     line) instead of the text rendering."
  in
  Arg.(value & flag & info [ "json" ] ~doc)

let progress_arg =
  let doc =
    "Report live per-task progress of the parallel executor to stderr \
     (starts, completions, straggler elapsed times). Pure observation: \
     results are bit-identical with and without it. $(b,EMPOWER_PROGRESS) \
     enables the same reporter ambiently."
  in
  Arg.(value & flag & info [ "progress" ] ~doc)

let metrics_arg =
  let doc =
    "Install the process-global metrics registry for the duration of the \
     command (every engine run feeds it) and print the registry summary to \
     stderr at the end."
  in
  Arg.(value & flag & info [ "metrics" ] ~doc)

(* Run [body] under the --json/--metrics flags: [body e] renders each
   figure through [e.emit], which picks text or JSON. (A record with a
   polymorphic field: one emitter serves every figure type.) *)
type emitter = { emit : 'a. 'a -> ('a -> unit) -> ('a -> Obs.Json.t) -> unit }

let with_obs ?jobs ~json ~metrics ~progress body =
  Option.iter Exec.set_default_jobs jobs;
  if progress then
    Exec.Progress.set_reporter (Some Exec.Progress.stderr_reporter);
  if metrics then ignore (Obs.Runtime.install_metrics ());
  body
    {
      emit =
        (fun data print to_json ->
          if json then Figure_json.print_json (to_json data) else print data);
    };
  if metrics then (
    match Obs.Runtime.metrics () with
    | Some reg -> Obs.Metrics.print_summary ~out:stderr reg
    | None -> ())

let both_topologies f =
  f Common.Residential;
  print_newline ();
  f Common.Enterprise

let fig4_cmd =
  let run runs seed json metrics progress jobs =
    with_obs ?jobs ~json ~metrics ~progress (fun e ->
        both_topologies (fun topo ->
            e.emit (Fig4.run ~runs ~seed topo) Fig4.print Figure_json.fig4))
  in
  Cmd.v
    (Cmd.info "fig4" ~doc:"CDF of flow throughput per scheme (Figure 4).")
    Term.(const run $ runs_arg 100 $ seed_arg 1 $ json_arg $ metrics_arg $ progress_arg $ jobs_arg)

let fig5_cmd =
  let run runs seed json metrics progress jobs =
    with_obs ?jobs ~json ~metrics ~progress (fun e ->
        both_topologies (fun topo ->
            e.emit (Fig5.run ~runs ~seed topo) Fig5.print Figure_json.fig5))
  in
  Cmd.v
    (Cmd.info "fig5" ~doc:"MP-mWiFi vs EMPoWER on the worst flows (Figure 5).")
    Term.(const run $ runs_arg 100 $ seed_arg 2 $ json_arg $ metrics_arg $ progress_arg $ jobs_arg)

let fig6_cmd =
  let run runs seed json metrics progress jobs =
    with_obs ?jobs ~json ~metrics ~progress (fun e ->
        both_topologies (fun topo ->
            e.emit (Fig6.run ~runs ~seed topo) Fig6.print Figure_json.fig6))
  in
  Cmd.v
    (Cmd.info "fig6" ~doc:"Throughput against optimal schemes (Figure 6).")
    Term.(const run $ runs_arg 60 $ seed_arg 3 $ json_arg $ metrics_arg $ progress_arg $ jobs_arg)

let fig7_cmd =
  let run runs seed json metrics progress jobs =
    with_obs ?jobs ~json ~metrics ~progress (fun e ->
        both_topologies (fun topo ->
            e.emit (Fig7.run ~runs ~seed topo) Fig7.print Figure_json.fig7))
  in
  Cmd.v
    (Cmd.info "fig7" ~doc:"Utility with 3 contending flows (Figure 7).")
    Term.(const run $ runs_arg 40 $ seed_arg 4 $ json_arg $ metrics_arg $ progress_arg $ jobs_arg)

let convergence_cmd =
  let run runs seed json metrics progress jobs =
    with_obs ?jobs ~json ~metrics ~progress (fun e ->
        both_topologies (fun topo ->
            e.emit
              (Convergence.run ~runs ~seed topo)
              Convergence.print Figure_json.convergence))
  in
  Cmd.v
    (Cmd.info "convergence"
       ~doc:"Convergence of EMPoWER vs backpressure (Section 5.2.2).")
    Term.(const run $ runs_arg 30 $ seed_arg 5 $ json_arg $ metrics_arg $ progress_arg $ jobs_arg)

let fig9_cmd =
  let run seed json metrics progress jobs =
    with_obs ?jobs ~json ~metrics ~progress (fun e ->
        e.emit (Fig9.run ~seed ()) Fig9.print Figure_json.fig9)
  in
  Cmd.v
    (Cmd.info "fig9" ~doc:"Two-flow adaptation example, packet-level (Figure 9).")
    Term.(const run $ seed_arg 9 $ json_arg $ metrics_arg $ progress_arg $ jobs_arg)

let fig10_cmd =
  let run runs seed json metrics progress jobs =
    with_obs ?jobs ~json ~metrics ~progress (fun e ->
        e.emit (Fig10.run ~pairs:runs ~seed ()) Fig10.print Figure_json.fig10)
  in
  Cmd.v
    (Cmd.info "fig10" ~doc:"50 random testbed pairs (Figure 10).")
    Term.(const run $ runs_arg 50 $ seed_arg 10 $ json_arg $ metrics_arg $ progress_arg $ jobs_arg)

let fig11_cmd =
  let run seed json metrics progress jobs =
    with_obs ?jobs ~json ~metrics ~progress (fun e ->
        e.emit (Fig11.run ~seed ()) Fig11.print Figure_json.fig11)
  in
  Cmd.v
    (Cmd.info "fig11" ~doc:"Per-flow mean/std throughput, packet-level (Figure 11).")
    Term.(const run $ seed_arg 11 $ json_arg $ metrics_arg $ progress_arg $ jobs_arg)

let table1_cmd =
  let run runs seed json metrics progress jobs =
    with_obs ?jobs ~json ~metrics ~progress (fun e ->
        e.emit (Table1.run ~seed ~repeats:runs ()) Table1.print Figure_json.table1)
  in
  Cmd.v
    (Cmd.info "table1" ~doc:"Download times with and without CC (Table 1).")
    Term.(const run $ runs_arg 5 $ seed_arg 12 $ json_arg $ metrics_arg $ progress_arg $ jobs_arg)

let fig12_cmd =
  let run seed json metrics progress jobs =
    with_obs ?jobs ~json ~metrics ~progress (fun e ->
        e.emit (Fig12.run ~seed ()) Fig12.print Figure_json.fig12)
  in
  Cmd.v
    (Cmd.info "fig12" ~doc:"TCP over EMPoWER time series (Figure 12).")
    Term.(const run $ seed_arg 13 $ json_arg $ metrics_arg $ progress_arg $ jobs_arg)

let fig13_cmd =
  let run seed json metrics progress jobs =
    with_obs ?jobs ~json ~metrics ~progress (fun e ->
        e.emit (Fig13.run ~seed ()) Fig13.print Figure_json.fig13)
  in
  Cmd.v
    (Cmd.info "fig13" ~doc:"TCP rate over ten flows (Figure 13).")
    Term.(const run $ seed_arg 14 $ json_arg $ metrics_arg $ progress_arg $ jobs_arg)

let ablations_cmd =
  let run runs seed json metrics progress jobs =
    with_obs ?jobs ~json ~metrics ~progress (fun e ->
        let show d =
          e.emit d Ablations.print Figure_json.ablation;
          if not json then print_newline ()
        in
        show (Ablations.n_shortest ~runs ~seed ());
        show (Ablations.csc ~runs ~seed:(seed + 1) ());
        show (Ablations.delta ~runs ~seed:(seed + 2) ());
        show (Ablations.tree_depth ~runs ~seed:(seed + 3) ());
        show (Ablations.gain ~runs:(max 5 (runs / 2)) ~seed:(seed + 4) ());
        show (Ablations.delta_delay ~seed:(seed + 5) ()))
  in
  Cmd.v
    (Cmd.info "ablations" ~doc:"Design-choice ablations (DESIGN.md section 4).")
    Term.(const run $ runs_arg 30 $ seed_arg 21 $ json_arg $ metrics_arg $ progress_arg $ jobs_arg)

let metrics_cmd =
  let run runs seed json metrics progress jobs =
    with_obs ?jobs ~json ~metrics ~progress (fun e ->
        both_topologies (fun topo ->
            e.emit
              (Metric_comparison.run ~runs ~seed topo)
              Metric_comparison.print Figure_json.metric_comparison))
  in
  Cmd.v
    (Cmd.info "metrics" ~doc:"Single-path metric comparison (footnote 7).")
    Term.(const run $ runs_arg 40 $ seed_arg 31 $ json_arg $ metrics_arg $ progress_arg $ jobs_arg)

let mptcp_cmd =
  let run seed json metrics progress jobs =
    with_obs ?jobs ~json ~metrics ~progress (fun e ->
        e.emit
          (Mptcp_applicability.run ~seed ())
          Mptcp_applicability.print Figure_json.mptcp)
  in
  Cmd.v
    (Cmd.info "mptcp" ~doc:"MPTCP applicability census (Section 7).")
    Term.(const run $ seed_arg 4242 $ json_arg $ metrics_arg $ progress_arg $ jobs_arg)

let mac_cmd =
  let run seed json metrics progress jobs =
    with_obs ?jobs ~json ~metrics ~progress (fun e ->
        e.emit (Mac_fairness.run ~seed ()) Mac_fairness.print Figure_json.mac_fairness)
  in
  Cmd.v
    (Cmd.info "mac" ~doc:"802.11 vs IEEE 1901 CSMA/CA comparison ([40]).")
    Term.(const run $ seed_arg 40 $ json_arg $ metrics_arg $ progress_arg $ jobs_arg)

(* ---------- artifact validation ---------- *)

(* Self-validation of a trace a command just wrote: the file must
   strict-decode and its replay must reproduce the engine's
   accounting. [what] names the trace in the failure messages. *)
let validate_trace ~what (outcome : Tracing.outcome) path =
  match Obs.Summary.of_file ~duration:outcome.Tracing.duration path with
  | Error e ->
    Printf.eprintf "%s validation failed: %s\n" what e;
    exit 1
  | Ok summary -> (
    match Tracing.cross_check outcome summary with
    | Error e ->
      Printf.eprintf "%s cross-check failed:\n%s\n" what e;
      exit 1
    | Ok () -> summary)

(* Dump a flight ring and strict-validate the dump — a recorder
   artifact that Obs.Summary cannot replay is a bug. Returns the dump's
   path and event count. *)
let dump_flight ring =
  match Obs.Flight.dump ring with
  | Error msg ->
    Printf.eprintf "[flight] dump failed: %s\n" msg;
    exit 1
  | Ok (path, n) -> (
    match Obs.Summary.read_file path with
    | Error err ->
      Printf.eprintf "[flight] dump %s failed strict validation: %s\n" path err;
      exit 1
    | Ok _ -> (path, n))

(* ---------- trace ---------- *)

let trace_cmd =
  let scenario_arg =
    let doc =
      Printf.sprintf "Scenario to trace; one of %s."
        (String.concat ", " (Tracing.names ()))
    in
    Arg.(value & pos 0 string "mini" & info [] ~docv:"SCENARIO" ~doc)
  in
  let out_arg =
    let doc = "Output JSONL file (one trace event per line)." in
    Arg.(value & opt string "trace.jsonl" & info [ "out"; "o" ] ~docv:"FILE" ~doc)
  in
  let run scenario out =
    match Tracing.find scenario with
    | None ->
      Printf.eprintf "unknown scenario %S; available: %s\n" scenario
        (String.concat ", " (Tracing.names ()));
      exit 2
    | Some sc ->
      let oc = open_out out in
      let outcome =
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> sc.Tracing.exec ~trace:(Obs.Trace.to_channel oc) ())
      in
      let summary = validate_trace ~what:"trace" outcome out in
      Obs.Summary.print summary;
      let p = outcome.Tracing.result.Engine.perf in
      Printf.printf
        "engine: %d events (%.0f events/s, %.3f s wall, peak event-queue %d)\n"
        outcome.Tracing.result.Engine.events_processed p.Engine.events_per_s
        p.Engine.wall_s p.Engine.peak_queue_depth;
      Printf.printf "%s: %d events -> %s (cross-check OK)\n" sc.Tracing.name
        summary.Obs.Summary.events out
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Record a JSONL event trace of a reference scenario, then validate \
          it (strict schema decode + replay cross-check against the engine).")
    Term.(const run $ scenario_arg $ out_arg)

(* ---------- diff ---------- *)

let diff_cmd =
  let file_arg n docv =
    Arg.(required & pos n (some string) None & info [] ~docv ~doc:"JSONL file.")
  in
  let run a b =
    match Obs.Diff.files a b with
    | Error e ->
      Printf.eprintf "diff: %s\n" e;
      exit 2
    | Ok None -> Printf.printf "%s and %s are identical\n" a b
    | Ok (Some d) ->
      Obs.Diff.print ~a ~b d;
      exit 1
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Find the first differing event of two JSONL traces or flight dumps: \
          print its index, both lines and up to three shared lines before it. \
          Exits 0 when the files are identical, 1 when they differ, 2 when one \
          cannot be read.")
    Term.(const run $ file_arg 0 "A" $ file_arg 1 "B")

(* ---------- profile ---------- *)

let profile_cmd =
  let scenario_arg =
    let doc =
      Printf.sprintf "Scenario to profile; one of %s."
        (String.concat ", " (Tracing.names ()))
    in
    Arg.(value & pos 0 string "mini" & info [] ~docv:"SCENARIO" ~doc)
  in
  let run scenario json =
    match Tracing.find scenario with
    | None ->
      Printf.eprintf "unknown scenario %S; available: %s\n" scenario
        (String.concat ", " (Tracing.names ()));
      exit 2
    | Some sc ->
      let prof = Obs.Prof.create () in
      let outcome = sc.Tracing.exec ~prof () in
      if json then Figure_json.print_json (Obs.Prof.to_json prof)
      else begin
        Obs.Prof.print prof;
        let p = outcome.Tracing.result.Engine.perf in
        Printf.printf "engine: %d events (%.0f events/s, %.3f s wall)\n"
          outcome.Tracing.result.Engine.events_processed p.Engine.events_per_s
          p.Engine.wall_s
      end
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Profile a reference scenario: wall time and GC minor words \
          attributed to the subsystem that handled each engine event \
          (mac_phy, traffic, controller, tcp, recovery, fault). The \
          profiler only reads the clock — simulation results are \
          unchanged. --json emits the 'profile' figure consumed by \
          $(b,empower_eval report).")
    Term.(const run $ scenario_arg $ json_arg)

(* ---------- report ---------- *)

let report_cmd =
  let file_arg =
    let doc =
      "Artifact to report on: a JSONL trace (trace/chaos --out, or a \
       flight-recorder dump), a loadsweep figure (loadsweep --json), a \
       profile (profile --json) or a scenario scorecard (scenario --json or \
       chaos --json). The shape is auto-detected."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let duration_arg =
    let doc =
      "Simulated horizon of a trace in seconds (default: the last event's \
       timestamp). Needed to reproduce exact goodput when the run outlives \
       its last event; ignored for figure documents."
    in
    Arg.(
      value & opt (some float) None & info [ "duration"; "d" ] ~docv:"SECONDS" ~doc)
  in
  let run file duration json =
    match Report.of_file ?duration file with
    | Error e ->
      Printf.eprintf "report: %s\n" e;
      exit 1
    | Ok r ->
      if json then Figure_json.print_json (Report.to_json r) else Report.print r
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Render any run artifact into one health report: SLOs (p99 FCT per \
          bucket, goodput vs LP bound, severance detect/recovery times), \
          drop/collision counters and profiler hotspots, as text or (with \
          --json) as a 'report' figure.")
    Term.(const run $ file_arg $ duration_arg $ json_arg)

(* ---------- chaos ---------- *)

let chaos_cmd =
  let intensity_arg =
    let doc = "Fault intensity: light, moderate, heavy or severing." in
    Arg.(
      value & opt string "moderate" & info [ "intensity"; "i" ] ~docv:"LEVEL" ~doc)
  in
  let sever_arg =
    let doc =
      "Full-severance profile: shorthand for --intensity severing (one node \
       crash guaranteed to take down every route of the flow) with the \
       self-healing recovery subsystem enabled."
    in
    Arg.(value & flag & info [ "sever" ] ~doc)
  in
  let no_recovery_arg =
    let doc =
      "Disable the self-healing recovery subsystem (with --sever this \
       reproduces the historical behaviour: detection by ack-silence only, \
       dead routes halved down to the 0.2 Mbit/s probe floor, stale prices \
       left to drain)."
    in
    Arg.(value & flag & info [ "no-recovery" ] ~doc)
  in
  let duration_arg =
    let doc = "Simulated seconds (faults all clear by half-time)." in
    Arg.(value & opt float 20.0 & info [ "duration"; "d" ] ~docv:"SECONDS" ~doc)
  in
  let out_arg =
    let doc =
      "Also record the run's JSONL event trace to $(docv) and self-validate \
       it (strict decode + replay cross-check)."
    in
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc)
  in
  let flight_arg =
    let doc =
      "Attach a flight recorder and, if the run shows a regression (a flow \
       that never recovers), dump the last events to $(docv) as JSONL — \
       strict-validated, replayable with $(b,empower_eval report). Without a \
       regression the ring is discarded."
    in
    Arg.(value & opt (some string) None & info [ "flight" ] ~docv:"FILE" ~doc)
  in
  let run seed intensity sever no_recovery duration out flight json metrics
      progress jobs =
    match Fault.Gen.intensity_of_name intensity with
    | None ->
      Printf.eprintf
        "unknown intensity %S; expected light, moderate, heavy or severing\n"
        intensity;
      exit 2
    | Some intensity ->
      let intensity = if sever then Fault.Gen.Severing else intensity in
      (* Recovery defaults on for severance runs (that is what --sever
         demonstrates) and off otherwise; --no-recovery forces it off
         in either case for before/after comparisons. *)
      let recovery = intensity = Fault.Gen.Severing && not no_recovery in
      let ring =
        Option.map (fun path -> Obs.Flight.create ~dump_path:path ()) flight
      in
      with_obs ?jobs ~json ~metrics ~progress (fun e ->
          let spec = Chaos.spec ~intensity ~recovery ~duration ~seed () in
          let sc =
            match out with
            | None -> Scenario.run ?flight:ring spec
            | Some path ->
              let oc = open_out path in
              let sc, result =
                Fun.protect
                  ~finally:(fun () -> close_out_noerr oc)
                  (fun () ->
                    Scenario.run_with_result ~trace:(Obs.Trace.to_channel oc)
                      ?flight:ring spec)
              in
              let outcome = { Tracing.scenario = "chaos"; result; duration } in
              let summary = validate_trace ~what:"chaos trace" outcome path in
              if not json then
                Printf.printf "chaos: %d events -> %s (cross-check OK)\n"
                  summary.Obs.Summary.events path;
              sc
          in
          (match ring with
          | None -> ()
          | Some ring ->
            (* Regression: a flow whose goodput never returned to its
               pre-fault baseline. Only then is the ring worth keeping. *)
            let regression =
              List.exists
                (fun (f : Scenario.flow_score) -> f.Scenario.recovery_s < 0.0)
                sc.Scenario.flows
            in
            if regression then begin
              let path, n = dump_flight ring in
              Printf.eprintf
                "[flight] regression (flow never recovered): last %d events \
                 -> %s\n"
                n path
            end
            else
              Printf.eprintf
                "[flight] no regression; ring discarded (%d events recorded)\n"
                (Obs.Flight.recorded ring));
          e.emit sc Scenario.print Scenario.to_json)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run a seeded, reproducible fault-injection scenario (random fault \
          plan against the testbed flow) and print its degradation scorecard \
          (the 'scenario' figure with --json, which $(b,empower_eval report) \
          renders): goodput dip and recovery against a fault-free twin run. \
          --sever runs the full-severance profile with the self-healing \
          recovery subsystem; --no-recovery turns it back off.")
    Term.(
      const run $ seed_arg 7 $ intensity_arg $ sever_arg $ no_recovery_arg
      $ duration_arg $ out_arg $ flight_arg $ json_arg $ metrics_arg $ progress_arg $ jobs_arg)

(* ---------- scenario ---------- *)

let scenario_cmd =
  let name_arg =
    let doc =
      "Scenario to run: a catalog name resolved to $(i,DIR)/$(i,NAME).json, \
       or a path to a scenario JSON file."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"NAME" ~doc)
  in
  let dir_arg =
    let doc =
      "Scenario catalog directory (default: $(b,EMPOWER_SCENARIOS) if set, \
       else 'scenarios')."
    in
    let default =
      Option.value (Sys.getenv_opt "EMPOWER_SCENARIOS") ~default:"scenarios"
    in
    Arg.(value & opt string default & info [ "dir" ] ~docv:"DIR" ~doc)
  in
  let list_arg =
    let doc = "List the catalog (name, duration, seed, description) and exit." in
    Arg.(value & flag & info [ "list" ] ~doc)
  in
  let all_arg =
    let doc = "Run every scenario in the catalog." in
    Arg.(value & flag & info [ "all" ] ~doc)
  in
  let flight_arg =
    let doc =
      "Attach a flight recorder to each run and, if the scenario misses its \
       SLO, dump the last events to $(docv) as JSONL (with --all the scenario \
       name is appended to the file stem) — strict-validated, replayable with \
       $(b,empower_eval report). Scenarios that meet their SLO discard the \
       ring."
    in
    Arg.(value & opt (some string) None & info [ "flight" ] ~docv:"FILE" ~doc)
  in
  let load_or_die path =
    match Scenario.load path with
    | Ok spec -> spec
    | Error e ->
      Printf.eprintf "scenario: %s\n" e;
      exit 2
  in
  let catalog_or_die dir =
    match Scenario.catalog dir with
    | Ok [] ->
      Printf.eprintf "scenario: no *.json scenarios in %s\n" dir;
      exit 2
    | Ok entries -> entries
    | Error e ->
      Printf.eprintf "scenario: %s\n" e;
      exit 2
  in
  (* With --all each scenario dumps to its own file: base "f.jsonl"
     becomes "f-<name>.jsonl". *)
  let flight_path_for base name =
    let ext = Filename.extension base in
    if ext = "" then base ^ "-" ^ name
    else Filename.remove_extension base ^ "-" ^ name ^ ext
  in
  (* Run one spec, arming a flight ring if requested. The ring is kept
     only on an SLO miss; the dump must strict-decode (same contract as
     `chaos --flight`). The miss itself is reported by the scorecard,
     not the exit status. *)
  let run_one ?flight spec =
    let ring =
      Option.map (fun path -> Obs.Flight.create ~dump_path:path ()) flight
    in
    let sc = Scenario.run ?flight:ring spec in
    (match ring with
    | None -> ()
    | Some ring ->
      if not sc.Scenario.slo_met then begin
        let path, n = dump_flight ring in
        Printf.eprintf "[flight] %s missed its SLO: last %d events -> %s\n"
          spec.Scenario.name n path
      end
      else
        Printf.eprintf
          "[flight] %s met its SLO; ring discarded (%d events recorded)\n"
          spec.Scenario.name
          (Obs.Flight.recorded ring));
    sc
  in
  let one_line s =
    let s = String.map (fun c -> if c = '\n' then ' ' else c) s in
    if String.length s <= 72 then s else String.sub s 0 69 ^ "..."
  in
  let run name dir list all flight json metrics progress jobs =
    if list then
      List.iter
        (fun (n, path) ->
          let spec = load_or_die path in
          Printf.printf "%-18s %5.1f s  seed %-6d %s\n" n
            spec.Scenario.duration spec.Scenario.seed
            (one_line spec.Scenario.description))
        (catalog_or_die dir)
    else if all then begin
      let specs =
        List.map (fun (_, path) -> load_or_die path) (catalog_or_die dir)
      in
      with_obs ?jobs ~json ~metrics ~progress (fun e ->
          let show sc =
            e.emit sc Scenario.print Scenario.to_json;
            if not json then print_newline ()
          in
          match flight with
          | None -> List.iter show (Scenario.run_all specs)
          | Some base ->
            (* Each run needs its own live ring and dump decision, so
               the flight sweep is sequential. *)
            List.iter
              (fun spec ->
                show
                  (run_one
                     ~flight:(flight_path_for base spec.Scenario.name)
                     spec))
              specs)
    end
    else
      match name with
      | None ->
        Printf.eprintf "scenario: expected a scenario name, --list or --all\n";
        exit 2
      | Some name ->
        let path =
          if Sys.file_exists name && not (Sys.is_directory name) then name
          else Filename.concat dir (name ^ ".json")
        in
        let spec = load_or_die path in
        with_obs ?jobs ~json ~metrics ~progress (fun e ->
            e.emit (run_one ?flight spec) Scenario.print Scenario.to_json)
  in
  Cmd.v
    (Cmd.info "scenario"
       ~doc:
         "Run a named scenario from the declarative catalog (topology + \
          device classes + churn plan + flows + SLO, as validated JSON) and \
          report its degradation scorecard: per-flow availability against the \
          fault-free baseline, time below SLO, per-churn-event dip and \
          recovery, and recovery-subsystem counters. Equal seeds give \
          byte-identical scorecards.")
    Term.(
      const run $ name_arg $ dir_arg $ list_arg $ all_arg $ flight_arg
      $ json_arg $ metrics_arg $ progress_arg $ jobs_arg)

(* ---------- loadsweep ---------- *)

let loadsweep_cmd =
  let loads_arg =
    let doc =
      "Target load factor in (0, 1] — a fraction of the aggregate capacity \
       EMPoWER allocates to the pairs. Repeatable: each occurrence adds a \
       sweep point (default: 0.1 to 0.9 in steps of 0.2)."
    in
    Arg.(value & opt_all float [] & info [ "load"; "l" ] ~docv:"FACTOR" ~doc)
  in
  let cdf_arg =
    let doc =
      "Flow-size CDF file ($(b,size_bytes cum_prob) per line, # comments; \
       see test/websearch.cdf). Default: the built-in web-search-style \
       distribution."
    in
    Arg.(value & opt (some string) None & info [ "cdf" ] ~docv:"FILE" ~doc)
  in
  let pairs_arg =
    let doc = "Sender/receiver pairs on the testbed (fan-in)." in
    Arg.(value & opt int 4 & info [ "pairs" ] ~docv:"N" ~doc)
  in
  let conns_arg =
    let doc = "Parallel connections per pair." in
    Arg.(value & opt int 2 & info [ "conns" ] ~docv:"N" ~doc)
  in
  let duration_arg =
    let doc = "Arrival window in simulated seconds (plus a 10 s drain)." in
    Arg.(value & opt float 30.0 & info [ "duration"; "d" ] ~docv:"SECONDS" ~doc)
  in
  let pacing_arg =
    let doc = "Frame pacing of each connection: cbr or poisson." in
    Arg.(value & opt string "cbr" & info [ "pacing" ] ~docv:"MODE" ~doc)
  in
  let run seed loads cdf pairs conns duration pacing json metrics progress jobs =
    let cdf =
      match cdf with
      | None -> Cdf.websearch
      | Some path -> (
        match Cdf.of_file path with
        | Ok c -> c
        | Error e ->
          Printf.eprintf "bad CDF file: %s\n" e;
          exit 2)
    in
    let pacing =
      match Workload.pacing_of_name pacing with
      | Some p -> p
      | None ->
        Printf.eprintf "unknown pacing %S; expected cbr or poisson\n" pacing;
        exit 2
    in
    let loads =
      match loads with [] -> [ 0.1; 0.3; 0.5; 0.7; 0.9 ] | ls -> ls
    in
    with_obs ?jobs ~json ~metrics ~progress (fun e ->
        e.emit
          (Loadsweep.sweep ~cdf ~pairs ~conns ~duration ~pacing ~seed loads)
          Loadsweep.print Figure_json.loadsweep)
  in
  Cmd.v
    (Cmd.info "loadsweep"
       ~doc:
         "Empirical heavy-traffic load sweep: CDF-sampled open-loop arrivals \
          at target load factors over the testbed, reporting per-size-bucket \
          flow-completion-time p50/p95/p99 and achieved load.")
    Term.(
      const run $ seed_arg 17 $ loads_arg $ cdf_arg $ pairs_arg $ conns_arg
      $ duration_arg $ pacing_arg $ json_arg $ metrics_arg $ progress_arg $ jobs_arg)

(* ---------- buffers ---------- *)

let buffers_cmd =
  let pools_arg =
    let doc =
      "Shared pool size in frames. Repeatable: each occurrence adds a sweep \
       point (default: 16 and 64)."
    in
    Arg.(value & opt_all int [] & info [ "pool" ] ~docv:"FRAMES" ~doc)
  in
  let alphas_arg =
    let doc =
      "Dynamic-Threshold alpha; a non-positive value selects the static \
       per-port partition. Repeatable (default: 0.5 and 1.0)."
    in
    Arg.(value & opt_all float [] & info [ "alpha" ] ~docv:"ALPHA" ~doc)
  in
  let ecns_arg =
    let doc =
      "ECN marking threshold in frames of port occupancy; 0 disables \
       marking. Repeatable (default: 0 and 8)."
    in
    Arg.(value & opt_all int [] & info [ "ecn" ] ~docv:"FRAMES" ~doc)
  in
  let duration_arg =
    let doc = "Simulated seconds per run." in
    Arg.(value & opt float 20.0 & info [ "duration"; "d" ] ~docv:"SECONDS" ~doc)
  in
  let run seed pools alphas ecns duration json metrics progress jobs =
    let pools = match pools with [] -> Buffers.default_pools | ps -> ps in
    let alphas = match alphas with [] -> Buffers.default_alphas | al -> al in
    let ecns = match ecns with [] -> Buffers.default_ecns | es -> es in
    with_obs ?jobs ~json ~metrics ~progress (fun e ->
        e.emit
          (Buffers.sweep ~seed ~duration ~pools ~alphas ~ecns ())
          Buffers.print Figure_json.buffers)
  in
  Cmd.v
    (Cmd.info "buffers"
       ~doc:
         "TCP friendliness under finite shared buffers: sweep pool size, \
          Dynamic-Threshold alpha and ECN marking threshold, comparing Reno, \
          a DCTCP-style TCP and EMPoWER's UDP multipath on the congested \
          testbed flow.")
    Term.(
      const run $ seed_arg 23 $ pools_arg $ alphas_arg $ ecns_arg
      $ duration_arg $ json_arg $ metrics_arg $ progress_arg $ jobs_arg)

let all_cmd =
  let run runs seed json metrics progress jobs =
    with_obs ?jobs ~json ~metrics ~progress (fun e ->
        let header title =
          if not json then
            Printf.printf "\n================ %s ================\n" title
        in
        header "Figure 4";
        both_topologies (fun t ->
            e.emit (Fig4.run ~runs ~seed t) Fig4.print Figure_json.fig4);
        header "Figure 5";
        both_topologies (fun t ->
            e.emit (Fig5.run ~runs ~seed:(seed + 1) t) Fig5.print Figure_json.fig5);
        header "Figure 6";
        both_topologies (fun t ->
            e.emit
              (Fig6.run ~runs:(max 10 (runs * 3 / 5)) ~seed:(seed + 2) t)
              Fig6.print Figure_json.fig6);
        header "Figure 7";
        both_topologies (fun t ->
            e.emit
              (Fig7.run ~runs:(max 10 (runs * 2 / 5)) ~seed:(seed + 3) t)
              Fig7.print Figure_json.fig7);
        header "Convergence (Section 5.2.2)";
        both_topologies (fun t ->
            e.emit
              (Convergence.run ~runs:(max 5 (runs / 4)) ~seed:(seed + 4) t)
              Convergence.print Figure_json.convergence);
        header "Figure 9";
        e.emit (Fig9.run ~seed:(seed + 5) ()) Fig9.print Figure_json.fig9;
        header "Figure 10";
        e.emit
          (Fig10.run ~pairs:(max 20 (runs / 2)) ~seed:(seed + 6) ())
          Fig10.print Figure_json.fig10;
        header "Figure 11";
        e.emit (Fig11.run ~seed:(seed + 7) ()) Fig11.print Figure_json.fig11;
        header "Table 1";
        e.emit
          (Table1.run ~seed:(seed + 8) ~repeats:3 ())
          Table1.print Figure_json.table1;
        header "Figure 12";
        e.emit (Fig12.run ~seed:(seed + 9) ()) Fig12.print Figure_json.fig12;
        header "Figure 13";
        e.emit (Fig13.run ~seed:(seed + 10) ()) Fig13.print Figure_json.fig13;
        header "Footnote 7: metric comparison";
        both_topologies (fun t ->
            e.emit
              (Metric_comparison.run ~runs:(max 10 (runs / 3)) ~seed:(seed + 11) t)
              Metric_comparison.print Figure_json.metric_comparison);
        header "Section 7: MPTCP applicability";
        e.emit (Mptcp_applicability.run ()) Mptcp_applicability.print
          Figure_json.mptcp;
        header "MAC fairness [40]";
        e.emit (Mac_fairness.run ()) Mac_fairness.print Figure_json.mac_fairness)
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Run the full evaluation suite.")
    Term.(const run $ runs_arg 60 $ seed_arg 1 $ json_arg $ metrics_arg $ progress_arg $ jobs_arg)

let main =
  let doc = "Reproduce the EMPoWER (CoNEXT'16) evaluation." in
  Cmd.group
    (Cmd.info "empower_eval" ~version:"1.0" ~doc)
    [
      fig4_cmd; fig5_cmd; fig6_cmd; fig7_cmd; convergence_cmd; fig9_cmd;
      fig10_cmd; fig11_cmd; table1_cmd; fig12_cmd; fig13_cmd; ablations_cmd;
      metrics_cmd; mptcp_cmd; mac_cmd; trace_cmd; diff_cmd; profile_cmd; report_cmd;
      chaos_cmd; scenario_cmd; loadsweep_cmd; buffers_cmd;
      all_cmd;
    ]

let () = exit (Cmd.eval main)
