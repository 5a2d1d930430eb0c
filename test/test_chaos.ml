(* Golden-seed regression and reproducibility tests for the chaos
   preset (lib/experiments/chaos.ml). Each file in test/golden/ is the
   `empower_eval chaos --json` scorecard of a fixed seed; the seed,
   intensity, duration and recovery switch read back from it rebuild
   the run through Chaos.spec, whose scorecard must replay the golden
   byte for byte. *)

module J = Obs.Json

let read_file path =
  match J.read_file path with Ok s -> s | Error m -> Alcotest.fail m

let scorecard_string spec = J.to_string (Scenario.to_json (Scenario.run spec))

(* ---------- golden replay ---------- *)

let golden_dir = "golden"

let golden_files =
  (* The dune rule declares golden/*.json as test deps, so the files
     sit next to the executable in the build sandbox. Only the chaos
     goldens belong to this suite. *)
  if Sys.file_exists golden_dir && Sys.is_directory golden_dir then
    Sys.readdir golden_dir |> Array.to_list
    |> List.filter (fun f ->
           Filename.check_suffix f ".json" && String.starts_with ~prefix:"chaos" f)
    |> List.sort compare
    |> List.map (fun f -> Filename.concat golden_dir f)
  else []

let test_goldens_present () =
  Alcotest.(check int) "four golden chaos scenarios checked in" 4
    (List.length golden_files)

(* A chaos spec is named "chaos-<intensity>". *)
let intensity_of_name path name =
  let prefix = "chaos-" in
  let n = String.length prefix in
  match
    if String.starts_with ~prefix name then
      Fault.Gen.intensity_of_name (String.sub name n (String.length name - n))
    else None
  with
  | Some i -> i
  | None -> Alcotest.failf "%s: %S is not a chaos scenario name" path name

let replay_golden path () =
  let golden = String.trim (read_file path) in
  match Result.bind (J.parse golden) Scenario.of_json with
  | Error m -> Alcotest.failf "%s: %s" path m
  | Ok sc ->
    let g = sc.Scenario.spec in
    let spec =
      Chaos.spec
        ~intensity:(intensity_of_name path g.Scenario.name)
        ~recovery:g.Scenario.recovery ~duration:g.Scenario.duration
        ~seed:g.Scenario.seed ()
    in
    Golden.check
      (Filename.basename path ^ " replays byte for byte")
      ~golden (scorecard_string spec)

(* ---------- reproducibility ---------- *)

let test_bit_reproducible () =
  let go () = Scenario.run_with_result (Chaos.spec ~seed:5 ~duration:6.0 ()) in
  let a, ra = go () and b, rb = go () in
  Alcotest.(check string) "scorecards byte-identical"
    (J.to_string (Scenario.to_json a))
    (J.to_string (Scenario.to_json b));
  Alcotest.(check bool) "engine results bit-identical (modulo perf)" true
    (Engine.strip_perf ra = Engine.strip_perf rb)

let test_plan_helper_matches_run () =
  (* Chaos.plan exposes the exact plan a seed yields for the scenario:
     the scorecard carries it, in Fault.normalize's order. *)
  let sc = Scenario.run (Chaos.spec ~seed:9 ~duration:6.0 ()) in
  let p =
    Chaos.plan ~intensity:Fault.Gen.Moderate (Chaos.graph ()) ~seed:9 ~duration:6.0
  in
  Alcotest.(check bool) "plan helper agrees with run" true
    (Fault.normalize p = sc.Scenario.plan)

let test_sever_recovery_reproducible () =
  (* The acceptance bar for the recovery subsystem's determinism:
     equal seeds are bit-identical with recovery on, severing plan
     included (backoff jitter comes from the engine's dedicated
     split). *)
  let go () =
    Scenario.run_with_result
      (Chaos.spec ~intensity:Fault.Gen.Severing ~recovery:true ~seed:13
         ~duration:8.0 ())
  in
  let a, ra = go () and b, rb = go () in
  Alcotest.(check string) "scorecards byte-identical"
    (J.to_string (Scenario.to_json a))
    (J.to_string (Scenario.to_json b));
  Alcotest.(check bool) "results bit-identical (modulo perf)" true
    (Engine.strip_perf ra = Engine.strip_perf rb)

let test_recovery_off_is_legacy () =
  (* ~recovery:false must be the default run. *)
  Alcotest.(check string) "recovery:false = default"
    (scorecard_string (Chaos.spec ~seed:5 ~duration:6.0 ()))
    (scorecard_string (Chaos.spec ~recovery:false ~seed:5 ~duration:6.0 ()))

let test_report_json_parses () =
  let sc = Scenario.run (Chaos.spec ~seed:5 ~duration:6.0 ()) in
  let doc = J.to_string (Scenario.to_json sc) in
  match Result.bind (J.parse doc) Scenario.of_json with
  | Ok back ->
    Alcotest.(check int) "seed survives" 5 back.Scenario.spec.Scenario.seed;
    Alcotest.(check bool) "embedded plan round-trips" true
      (back.Scenario.plan = sc.Scenario.plan);
    Alcotest.(check string) "to_json (of_json j) = j" doc
      (J.to_string (Scenario.to_json back))
  | Error m -> Alcotest.failf "scorecard JSON does not decode: %s" m

let () =
  Alcotest.run "chaos"
    [
      ( "golden",
        Alcotest.test_case "goldens present" `Quick test_goldens_present
        :: List.map
             (fun path ->
               Alcotest.test_case (Filename.basename path) `Slow
                 (replay_golden path))
             golden_files );
      ( "reproducibility",
        [
          Alcotest.test_case "bit-identical runs" `Slow test_bit_reproducible;
          Alcotest.test_case "plan helper matches run" `Slow
            test_plan_helper_matches_run;
          Alcotest.test_case "sever + recovery bit-identical" `Slow
            test_sever_recovery_reproducible;
          Alcotest.test_case "recovery off is the legacy run" `Slow
            test_recovery_off_is_legacy;
          Alcotest.test_case "report JSON parses" `Slow test_report_json_parses;
        ] );
    ]
