(* Golden-seed regression and reproducibility tests for the chaos
   scenario (lib/experiments/chaos.ml). Each file in test/golden/ is
   the `empower_eval chaos --json` report of a fixed seed; replaying
   the seed must reproduce it — byte counts and event totals exactly,
   recovery metrics to 1e-9. *)

let check_float ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

module J = Obs.Json

(* A golden field the kit cannot read fails the test with the kit's
   message. *)
let get read name j =
  match read name j with
  | Ok v -> v
  | Error m -> Alcotest.failf "golden report: %s" m

(* ---------- golden replay ---------- *)

let golden_dir = "golden"

let golden_files =
  (* The dune rule declares golden/*.json as test deps, so the files
     sit next to the executable in the build sandbox. Only the chaos
     goldens belong to this suite (the loadsweep golden is replayed by
     test_loadsweep). *)
  if Sys.file_exists golden_dir && Sys.is_directory golden_dir then
    Sys.readdir golden_dir |> Array.to_list
    |> List.filter (fun f ->
           Filename.check_suffix f ".json"
           && String.length f >= 5
           && String.sub f 0 5 = "chaos")
    |> List.sort compare
    |> List.map (fun f -> Filename.concat golden_dir f)
  else []

let test_goldens_present () =
  Alcotest.(check int) "four golden chaos scenarios checked in" 4
    (List.length golden_files)

let replay_golden path () =
  let j =
    match J.of_file path with Ok j -> j | Error m -> Alcotest.fail m
  in
  let seed = get J.int_field "seed" j in
  let duration = get J.float_field "duration" j in
  let intensity =
    let name = get J.string_field "intensity" j in
    match Fault.Gen.intensity_of_name name with
    | Some i -> i
    | None -> Alcotest.failf "%s: unknown intensity %S" path name
  in
  Alcotest.(check string) "scenario tag" "chaos"
    (get J.string_field "scenario" j);
  (* Goldens recorded before the recovery subsystem carry no
     "recovery" field; they replay with it off. *)
  let recovery =
    match J.member "recovery" j with
    | Some _ -> get J.bool_field "recovery" j
    | None -> false
  in
  let r = Chaos.run ~intensity ~recovery ~duration ~seed () in
  (* The plan itself must replay byte-for-byte... *)
  (match Fault.of_json (get J.field "plan" j) with
  | Ok p ->
    if p <> r.Chaos.plan then
      Alcotest.failf "%s: replayed plan differs from the golden plan" path
  | Error m -> Alcotest.failf "%s: golden plan does not decode: %s" path m);
  (* ...and so must the run it drives. *)
  Alcotest.(check int) "fault_events"
    (get J.int_field "fault_events" j)
    r.Chaos.fault_events;
  Alcotest.(check int) "queue_drops" (get J.int_field "queue_drops" j)
    r.Chaos.result.Engine.queue_drops;
  Alcotest.(check int) "events_processed"
    (get J.int_field "events_processed" j)
    r.Chaos.result.Engine.events_processed;
  let flows = get (fun name -> J.list_field name Result.ok) "flows" j in
  Alcotest.(check int) "flow count" (List.length flows)
    (List.length r.Chaos.flows);
  List.iter2
    (fun fj (f : Chaos.flow_report) ->
      let m name = Printf.sprintf "flow %d %s" f.Chaos.flow name in
      Alcotest.(check int) (m "id") (get J.int_field "flow" fj) f.Chaos.flow;
      Alcotest.(check int)
        (m "received_bytes")
        (get J.int_field "received_bytes" fj) f.Chaos.received_bytes;
      let float name = get J.float_field name fj in
      check_float (m "goodput_mbps") (float "goodput_mbps") f.Chaos.goodput_mbps;
      check_float (m "recovery_s") (float "recovery_s") f.Chaos.recovery_s;
      check_float (m "dip_depth") (float "dip_depth") f.Chaos.dip_depth;
      check_float (m "dip_area") (float "dip_area") f.Chaos.dip_area;
      Alcotest.(check int) (m "reroutes") (get J.int_field "reroutes" fj)
        f.Chaos.reroutes;
      (* detect_s is absent from pre-recovery goldens. *)
      match J.member "detect_s" fj with
      | Some _ -> check_float (m "detect_s") (float "detect_s") f.Chaos.detect_s
      | None -> ())
    flows r.Chaos.flows

(* ---------- reproducibility ---------- *)

let test_bit_reproducible () =
  let a = Chaos.run ~seed:5 ~duration:6.0 () in
  let b = Chaos.run ~seed:5 ~duration:6.0 () in
  Alcotest.(check bool) "plans identical" true (a.Chaos.plan = b.Chaos.plan);
  Alcotest.(check bool) "engine results bit-identical (modulo perf)" true
    (Engine.strip_perf a.Chaos.result = Engine.strip_perf b.Chaos.result);
  Alcotest.(check bool) "recovery metrics identical" true
    (a.Chaos.flows = b.Chaos.flows);
  Alcotest.(check int) "fault boundary count identical" a.Chaos.fault_events
    b.Chaos.fault_events

let test_plan_helper_matches_run () =
  (* Chaos.plan exposes the exact plan a seed yields for the
     scenario: it must agree with what Chaos.run draws. *)
  let net = Chaos.network () in
  let r = Chaos.run ~seed:9 ~duration:6.0 () in
  let p =
    Chaos.plan ~intensity:Fault.Gen.Moderate net ~seed:9 ~duration:6.0
  in
  Alcotest.(check bool) "plan helper agrees with run" true (p = r.Chaos.plan)

let test_sever_recovery_reproducible () =
  (* The acceptance bar for the recovery subsystem's determinism:
     equal seeds are bit-identical with recovery on, severing plan
     included (backoff jitter comes from the engine's dedicated
     split). *)
  let go () =
    Chaos.run ~intensity:Fault.Gen.Severing ~recovery:true ~seed:13
      ~duration:8.0 ()
  in
  let a = go () and b = go () in
  Alcotest.(check bool) "severing plans identical" true
    (a.Chaos.plan = b.Chaos.plan);
  Alcotest.(check bool) "results bit-identical (modulo perf)" true
    (Engine.strip_perf a.Chaos.result = Engine.strip_perf b.Chaos.result);
  Alcotest.(check bool) "recovery metrics identical" true
    (a.Chaos.flows = b.Chaos.flows)

let test_recovery_off_is_legacy () =
  (* ~recovery:false must be the exact historical run: same result as
     not mentioning recovery at all. *)
  let a = Chaos.run ~seed:5 ~duration:6.0 () in
  let b = Chaos.run ~recovery:false ~seed:5 ~duration:6.0 () in
  Alcotest.(check bool) "recovery:false = legacy" true
    (Engine.strip_perf a.Chaos.result = Engine.strip_perf b.Chaos.result
    && a.Chaos.flows = b.Chaos.flows)

let test_report_json_parses () =
  let r = Chaos.run ~seed:5 ~duration:6.0 () in
  match Obs.Json.parse (Obs.Json.to_string (Chaos.to_json r)) with
  | Ok j ->
    Alcotest.(check int) "seed survives" 5 (get J.int_field "seed" j);
    (match Fault.of_json (get J.field "plan" j) with
    | Ok p ->
      Alcotest.(check bool) "embedded plan round-trips" true (p = r.Chaos.plan)
    | Error m -> Alcotest.failf "embedded plan: %s" m)
  | Error m -> Alcotest.failf "report JSON does not parse: %s" m

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
