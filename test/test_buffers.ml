(* Golden-seed regression and jobs-determinism tests for the finite
   shared-buffer study (lib/experiments/buffers.ml). test/golden/
   buffers_seed23.json is the exact `empower_eval buffers --seed 23
   -d 12 --pool 16 --pool 64 --alpha 1.0 --ecn 0 --ecn 8 --json`
   output; replaying those parameters must reproduce it byte for
   byte, at any --jobs count. *)

let golden_path = Filename.concat "golden" "buffers_seed23.json"

module J = Obs.Json

(* A golden field the kit cannot read fails the test with the kit's
   message. *)
let get read name j =
  match read name j with
  | Ok v -> v
  | Error m -> Alcotest.failf "golden report: %s" m

let golden_text () =
  match J.read_file golden_path with
  | Ok s -> String.trim s
  | Error m -> Alcotest.fail m

let golden_json () =
  match J.parse (golden_text ()) with
  | Ok j -> j
  | Error m -> Alcotest.failf "%s: %s" golden_path m

let golden_params () =
  let j = golden_json () in
  let list elt name = get (fun name -> J.list_field name elt) name j in
  ( get J.int_field "seed" j,
    get J.float_field "duration" j,
    list J.integer "pools",
    list J.number "alphas",
    list J.integer "ecns" )

let rerun ?jobs () =
  let seed, duration, pools, alphas, ecns = golden_params () in
  Obs.Json.to_string
    (Figure_json.buffers
       (Buffers.sweep ~seed ~duration ~pools ~alphas ~ecns ?jobs ()))

let test_golden_replay () =
  (* The parameters embedded in the golden reproduce it exactly —
     goodputs, drop counts, CE marks, pool peaks. Regenerate with the
     command in the header comment if an intentional engine or format
     change lands. *)
  Golden.check "golden buffers byte-identical" ~golden:(golden_text ())
    (rerun ())

let test_congestive_contrast () =
  (* The study's headline claim, pinned on the golden itself: on the
     deep-pool ECN point the DCTCP sender absorbs the marks without a
     single tail-drop while Reno keeps overflowing the pool. *)
  let objects name j = get (fun name -> J.list_field name Result.ok) name j in
  let int = get J.int_field and float = get J.float_field in
  let points = objects "points" (golden_json ()) in
  let deep_ecn =
    List.filter
      (fun p -> int "pool_frames" p = 64 && int "ecn_frames" p > 0)
      points
  in
  Alcotest.(check bool) "has a deep-pool ECN point" true (deep_ecn <> []);
  List.iter
    (fun p ->
      let variants = objects "variants" p in
      let find name =
        List.find
          (fun v -> J.string_field "variant" v = Ok name)
          variants
      in
      let reno = find "reno" and dctcp = find "dctcp" in
      Alcotest.(check bool) "reno tail-drops" true (int "queue_drops" reno > 0);
      Alcotest.(check int) "dctcp has no drops" 0 (int "queue_drops" dctcp);
      Alcotest.(check bool) "dctcp sees marks" true (int "ecn_marks" dctcp > 0);
      Alcotest.(check bool) "dctcp goodput at least reno's" true
        (float "goodput_mbps" dctcp >= float "goodput_mbps" reno))
    deep_ecn

let test_jobs_byte_identity () =
  (* The --jobs contract (test_exec pattern): any worker count yields
     byte-identical figure JSON. *)
  let seq = rerun ~jobs:1 () in
  Alcotest.(check string) "--jobs 2 byte-identical" seq (rerun ~jobs:2 ());
  Alcotest.(check string) "--jobs 3 byte-identical" seq (rerun ~jobs:3 ())

let test_seed_changes_output () =
  (* Guard against the golden accidentally pinning seed-independent
     output: a different seed must change the figure. *)
  let _, duration, pools, alphas, ecns = golden_params () in
  let at seed =
    Obs.Json.to_string
      (Figure_json.buffers (Buffers.sweep ~seed ~duration ~pools ~alphas ~ecns ()))
  in
  Alcotest.(check bool) "seed matters" false (at 23 = at 24)

let () =
  Alcotest.run "buffers"
    [
      ( "golden",
        [
          Alcotest.test_case "replay seed 23" `Quick test_golden_replay;
          Alcotest.test_case "congestive contrast" `Quick
            test_congestive_contrast;
          Alcotest.test_case "seed changes output" `Quick
            test_seed_changes_output;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "jobs byte-identity" `Slow test_jobs_byte_identity;
        ] );
    ]
