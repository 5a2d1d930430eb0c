(* Golden-seed regression and jobs-determinism tests for the empirical
   load sweep (lib/experiments/loadsweep.ml). test/golden/
   loadsweep_seed17.json is the exact `empower_eval loadsweep --seed 17
   --pairs 3 --conns 2 --duration 10 --load 0.2 --load 0.5 --load 0.8
   --json` output; replaying those parameters must reproduce it byte
   for byte, at any --jobs count. *)

let golden_path = Filename.concat "golden" "loadsweep_seed17.json"

let golden_text () =
  match Obs.Json.read_file golden_path with
  | Ok s -> String.trim s
  | Error m -> Alcotest.fail m

let golden () =
  match Result.bind (Obs.Json.of_file golden_path) Figure_json.loadsweep_of_json with
  | Ok d -> d
  | Error m -> Alcotest.failf "%s: %s" golden_path m

let golden_params () =
  let d = golden () in
  ( d.Loadsweep.seed,
    d.Loadsweep.pairs,
    d.Loadsweep.conns,
    d.Loadsweep.duration,
    d.Loadsweep.drain,
    List.map (fun p -> p.Loadsweep.load) d.Loadsweep.points )

let rerun ?jobs () =
  let seed, pairs, conns, duration, drain, loads = golden_params () in
  Obs.Json.to_string
    (Figure_json.loadsweep
       (Loadsweep.sweep ~pairs ~conns ~duration ~drain ~seed ?jobs loads))

let test_golden_replay () =
  (* The parameters embedded in the golden reproduce it exactly —
     histogram percentiles, achieved loads and all. Regenerate with
     the command in the header comment if an intentional engine or
     format change lands. *)
  Golden.check "golden loadsweep byte-identical" ~golden:(golden_text ())
    (rerun ())

let test_golden_decodes () =
  (* The figure's decoder is its encoder's inverse: the golden
     reprints byte for byte from what it decodes to. *)
  Golden.check "loadsweep (loadsweep_of_json j) = j" ~golden:(golden_text ())
    (Obs.Json.to_string (Figure_json.loadsweep (golden ())))

let test_jobs_byte_identity () =
  (* The --jobs contract (test_exec pattern): any worker count yields
     byte-identical figure JSON. *)
  let seq = rerun ~jobs:1 () in
  Alcotest.(check string) "--jobs 2 byte-identical" seq (rerun ~jobs:2 ());
  Alcotest.(check string) "--jobs 3 byte-identical" seq (rerun ~jobs:3 ())

let test_golden_diff () =
  (* A golden mismatch names the first differing member, with both
     values. *)
  let golden = {|{"a":1,"b":[{"c":2.5},{"c":3}],"d":"x"}|} in
  Alcotest.(check string) "value"
    "first difference at $.b[1].c: golden 3, replay 4"
    (Golden.explain golden {|{"a":1,"b":[{"c":2.5},{"c":4}],"d":"y"}|});
  Alcotest.(check string) "length"
    "first difference at $.b: golden length 2, replay length 1"
    (Golden.explain golden {|{"a":1,"b":[{"c":2.5}],"d":"x"}|});
  Alcotest.(check string) "member"
    {|first difference at $: golden member "d", replay member "e"|}
    (Golden.explain golden {|{"a":1,"b":[{"c":2.5},{"c":3}],"e":"x"}|});
  Golden.check "equal documents pass" ~golden golden

let test_seed_changes_output () =
  (* Guard against the golden accidentally pinning seed-independent
     output: a different seed must change the figure. *)
  let _, pairs, conns, duration, drain, loads = golden_params () in
  let at seed =
    Obs.Json.to_string
      (Figure_json.loadsweep
         (Loadsweep.sweep ~pairs ~conns ~duration ~drain ~seed loads))
  in
  Alcotest.(check bool) "seed matters" false (at 17 = at 18)

let () =
  Alcotest.run "loadsweep"
    [
      ( "golden",
        [
          Alcotest.test_case "replay seed 17" `Quick test_golden_replay;
          Alcotest.test_case "decoder reprints the golden" `Quick
            test_golden_decodes;
          Alcotest.test_case "seed changes output" `Quick
            test_seed_changes_output;
          Alcotest.test_case "mismatch names a member" `Quick test_golden_diff;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "jobs byte-identity" `Slow test_jobs_byte_identity;
        ] );
    ]
