(* Scenario catalog tests: every shipped scenario under scenarios/
   must decode, run, meet its own SLO and replay its golden scorecard
   byte-for-byte; the spec decoder must reject malformed documents;
   run_all must be bit-identical for any job count. *)

let read_file path =
  match Obs.Json.read_file path with Ok s -> s | Error m -> Alcotest.fail m

(* The dune rule depends on ../scenarios/*.json, so the catalog sits
   one level above the test executable in the build sandbox. *)
let scenarios_dir = "../scenarios"
let golden_dir = "golden"

let catalog () =
  match Scenario.catalog scenarios_dir with
  | Ok entries -> entries
  | Error e -> Alcotest.failf "catalog: %s" e

let load_spec path =
  match Scenario.load path with
  | Ok spec -> spec
  | Error e -> Alcotest.failf "%s: %s" path e

let scorecard_string spec =
  Obs.Json.to_string (Scenario.to_json (Scenario.run spec))

(* ---------- catalog shape ---------- *)

let test_catalog_names () =
  let names = List.map fst (catalog ()) in
  List.iter
    (fun required ->
      if not (List.mem required names) then
        Alcotest.failf "catalog is missing the %S scenario" required)
    [ "flapping-churn"; "capacity-drift"; "legacy-mix"; "join-growth" ];
  Alcotest.(check bool)
    "at least four scenarios shipped" true
    (List.length names >= 4)

let test_catalog_specs_valid () =
  List.iter
    (fun (name, path) ->
      let spec = load_spec path in
      Alcotest.(check string)
        (Printf.sprintf "%s: name matches filename" path)
        name spec.Scenario.name)
    (catalog ())

(* Each required churn flavour is represented: sustained flapping,
   capacity drift, a legacy single-medium device mix, join-heavy
   growth. *)
let test_catalog_covers_flavours () =
  let specs = List.map (fun (_, p) -> load_spec p) (catalog ()) in
  let plan_of (spec : Scenario.spec) =
    match spec.Scenario.churn with Scenario.Plan p -> p | _ -> []
  in
  let has pred = List.exists pred specs in
  Alcotest.(check bool) "a flapping scenario" true
    (has (fun s ->
         List.exists
           (function Fault.Node_flap _ -> true | _ -> false)
           (plan_of s)));
  Alcotest.(check bool) "a capacity-drift scenario" true
    (has (fun s ->
         List.exists
           (function Fault.Capacity_drift _ -> true | _ -> false)
           (plan_of s)));
  Alcotest.(check bool) "a join scenario" true
    (has (fun s ->
         List.exists
           (function Fault.Node_join _ -> true | _ -> false)
           (plan_of s)));
  Alcotest.(check bool) "a legacy device-class scenario" true
    (has (fun s ->
         List.exists
           (fun (d : Device.spec) -> d.Device.cls = Device.Legacy)
           s.Scenario.devices))

(* ---------- golden replay ---------- *)

(* The golden is the exact `empower_eval scenario <name> --json`
   output (print_endline appends the \n). Byte equality pins the
   whole scorecard: plan, per-flow metrics, per-event table, SLO
   verdict. *)
let replay_golden name () =
  let spec = load_spec (Filename.concat scenarios_dir (name ^ ".json")) in
  let golden =
    read_file (Filename.concat golden_dir ("scenario_" ^ name ^ ".json"))
  in
  Golden.check
    (name ^ " scorecard replays byte-for-byte")
    ~golden:(String.trim golden) (scorecard_string spec)

(* The scorecard decoder is its encoder's inverse: every golden
   reprints byte for byte from what it decodes to, and an explicit
   churn comes back as the plan the run used. *)
let test_goldens_decode () =
  List.iter
    (fun (name, _) ->
      let path = Filename.concat golden_dir ("scenario_" ^ name ^ ".json") in
      let golden = String.trim (read_file path) in
      match Result.bind (Obs.Json.parse golden) Scenario.of_json with
      | Error e -> Alcotest.failf "%s: %s" path e
      | Ok sc ->
        Golden.check
          (name ^ " to_json (of_json j) = j")
          ~golden
          (Obs.Json.to_string (Scenario.to_json sc));
        (match sc.Scenario.spec.Scenario.churn with
        | Scenario.Plan p ->
          Alcotest.(check bool) (name ^ " churn is the run's plan") true
            (p = sc.Scenario.plan)
        | Scenario.Generate _ -> ()))
    (catalog ())

let test_shipped_scenarios_meet_slo () =
  List.iter
    (fun (name, path) ->
      let sc = Scenario.run (load_spec path) in
      if not sc.Scenario.slo_met then
        Alcotest.failf "shipped scenario %s misses its own SLO (%.3f)" name
          sc.Scenario.min_availability_measured)
    (catalog ())

(* ---------- determinism ---------- *)

let test_bit_reproducible () =
  let spec = load_spec (Filename.concat scenarios_dir "flapping-churn.json") in
  Alcotest.(check string)
    "equal seeds give byte-identical scorecards" (scorecard_string spec)
    (scorecard_string spec)

let test_run_all_jobs_identical () =
  let specs = List.map (fun (_, p) -> load_spec p) (catalog ()) in
  let render jobs =
    Scenario.run_all ~jobs specs
    |> List.map (fun sc -> Obs.Json.to_string (Scenario.to_json sc))
  in
  Alcotest.(check (list string))
    "run_all is bit-identical for any job count" (render 1) (render 3)

(* ---------- outage seconds ---------- *)

(* A second in which a flow delivers nothing is a 0 Mbit/s bin. At
   seed + 4, legacy-mix's flow 1 delivers nothing in 4 whole seconds of
   its 28 s measure window: 21 of 28 bins meet the SLO, and its worst
   dip is its whole pre-recovery baseline. Scored without the empty
   seconds, it would read 21 of 24 bins (0.875), 3 s below SLO and a
   13.888 Mbit/s dip. *)
let test_outage_seconds_count () =
  let spec = load_spec (Filename.concat scenarios_dir "legacy-mix.json") in
  let sc = Scenario.run { spec with Scenario.seed = spec.Scenario.seed + 4 } in
  match sc.Scenario.flows with
  | [ _; f ] ->
    Alcotest.(check (float 0.0)) "availability" 0.75 f.Scenario.availability;
    Alcotest.(check (float 0.0)) "seconds below SLO" 7.0 f.Scenario.below_slo_s;
    Alcotest.(check (float 1e-9)) "dip depth" 15.04 f.Scenario.dip_depth
  | _ -> Alcotest.fail "legacy-mix runs two flows"

(* ---------- --metrics ---------- *)

(* The process-global registry (--metrics) after one scenario run. Its
   digest was taken when both engine runs fed full recorders: the
   fault-free twin stays invisible to the registry, and the churn run
   stays fully visible. *)
let test_metrics_registry () =
  let spec = load_spec (Filename.concat scenarios_dir "flapping-churn.json") in
  Obs.Runtime.clear ();
  let reg = Obs.Runtime.install_metrics () in
  Fun.protect ~finally:Obs.Runtime.clear (fun () ->
      ignore (Scenario.run spec);
      Alcotest.(check string)
        "--metrics registry digest" "a76afd7d7b3ecc2183626b6bcb8c1f07"
        (Digest.to_hex (Digest.string (Obs.Json.to_string (Obs.Metrics.to_json reg)))))

(* ---------- strict decoding ---------- *)

let parse s =
  match Obs.Json.parse s with
  | Ok j -> j
  | Error e -> Alcotest.failf "test JSON does not parse: %s" e

let base_doc =
  {|{
  "version": 1,
  "name": "t", "description": "d", "seed": 1, "duration": 5.0,
  "topology": { "kind": "testbed", "seed": 4242 },
  "flows": [ { "src": 0, "dst": 12 } ],
  "churn": { "generate": { "intensity": "light" } },
  "recovery": false,
  "slo": { "availability_frac": 0.5, "min_availability": 0.5 }
}|}

let reject msg doc =
  match Scenario.spec_of_json (parse doc) with
  | Ok _ -> Alcotest.failf "%s: expected a decode error" msg
  | Error _ -> ()

let test_decode_ok () =
  match Scenario.spec_of_json (parse base_doc) with
  | Ok spec ->
    Alcotest.(check string) "name" "t" spec.Scenario.name;
    Alcotest.(check int) "topology seed" 4242 spec.Scenario.topology_seed
  | Error e -> Alcotest.failf "base document must decode: %s" e

(* Replace the first occurrence of [pat] in the base document. *)
let patch pat repl =
  let n = String.length base_doc and m = String.length pat in
  let rec find i =
    if i + m > n then Alcotest.failf "patch: %S not in base document" pat
    else if String.sub base_doc i m = pat then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub base_doc 0 i ^ repl ^ String.sub base_doc (i + m) (n - i - m)

let test_decode_rejects () =
  reject "wrong version" (patch {|"version": 1|} {|"version": 2|});
  reject "missing version"
    (patch {|"version": 1,|} "");
  reject "bad topology kind" (patch {|"kind": "testbed"|} {|"kind": "mesh"|});
  reject "empty flows" (patch {|[ { "src": 0, "dst": 12 } ]|} "[]");
  reject "src = dst" (patch {|{ "src": 0, "dst": 12 }|} {|{ "src": 3, "dst": 3 }|});
  reject "zero duration" (patch {|"duration": 5.0|} {|"duration": 0.0|});
  reject "slo out of range"
    (patch {|"availability_frac": 0.5|} {|"availability_frac": 1.5|});
  reject "unknown intensity"
    (patch {|"intensity": "light"|} {|"intensity": "apocalyptic"|});
  reject "bad device class"
    (patch {|"flows"|} {|"devices": [ { "node": 1, "class": "quantum" } ], "flows"|});
  reject "duplicate device node"
    (patch {|"flows"|}
       {|"devices": [ { "node": 1, "class": "relay" },
                      { "node": 1, "class": "legacy" } ], "flows"|});
  reject "churn with neither generate nor plan"
    (patch {|{ "generate": { "intensity": "light" } }|} "{}")

let test_decode_explicit_plan () =
  let doc =
    patch
      {|{ "generate": { "intensity": "light" } }|}
      {|{ "plan": { "version": 2, "actions": [
           { "op": "node_flap", "at": 1.0, "until": 4.0,
             "node": 3, "period": 1.0, "duty": 0.5 } ] } }|}
  in
  match Scenario.spec_of_json (parse doc) with
  | Ok { Scenario.churn = Scenario.Plan [ Fault.Node_flap _ ]; _ } -> ()
  | Ok _ -> Alcotest.fail "expected a one-action explicit plan"
  | Error e -> Alcotest.failf "explicit plan must decode: %s" e

(* Relay endpoints may not originate traffic: the runner rejects a
   flow from/to a relay-class device at validation time. *)
let test_relay_endpoint_rejected () =
  let doc =
    patch {|"flows"|} {|"devices": [ { "node": 0, "class": "relay" } ], "flows"|}
  in
  match Scenario.spec_of_json (parse doc) with
  | Error e -> Alcotest.failf "spec itself decodes: %s" e
  | Ok spec -> (
    match Scenario.run spec with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument for a relay source")

let () =
  let golden name = ("golden " ^ name, `Slow, replay_golden name) in
  Alcotest.run "scenario"
    [
      ( "catalog",
        [
          ("required names", `Quick, test_catalog_names);
          ("specs valid", `Quick, test_catalog_specs_valid);
          ("flavours covered", `Quick, test_catalog_covers_flavours);
        ] );
      ( "golden",
        [
          golden "flapping-churn";
          golden "capacity-drift";
          golden "legacy-mix";
          golden "join-growth";
          ("decoder reprints the goldens", `Quick, test_goldens_decode);
          ("shipped SLOs pass", `Slow, test_shipped_scenarios_meet_slo);
        ] );
      ( "determinism",
        [
          ("bit reproducible", `Slow, test_bit_reproducible);
          ("run_all jobs identical", `Slow, test_run_all_jobs_identical);
        ] );
      ("outage", [ ("empty seconds are 0 Mbit/s bins", `Slow, test_outage_seconds_count) ]);
      ("metrics", [ ("--metrics registry pin", `Slow, test_metrics_registry) ]);
      ( "decode",
        [
          ("base document", `Quick, test_decode_ok);
          ("rejections", `Quick, test_decode_rejects);
          ("explicit plan", `Quick, test_decode_explicit_plan);
          ("relay endpoint", `Quick, test_relay_endpoint_rejected);
        ] );
    ]
