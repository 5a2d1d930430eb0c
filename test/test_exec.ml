(* The deterministic domain-pool executor: ordering, exception
   propagation, the metrics-registry merge, and end-to-end figure /
   chaos determinism across job counts (the [--jobs N] contract: any
   worker count yields byte-identical output). *)

let test_map_order () =
  let xs = List.init 100 Fun.id in
  let f x = (x * x) + 1 in
  Alcotest.(check (list int)) "jobs:4 == List.map" (List.map f xs)
    (Exec.map ~jobs:4 f xs);
  Alcotest.(check (list int)) "jobs:1 == List.map" (List.map f xs)
    (Exec.map ~jobs:1 f xs);
  Alcotest.(check (list int)) "more jobs than items"
    (List.map f [ 1; 2; 3 ])
    (Exec.map ~jobs:16 f [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "empty list" [] (Exec.map ~jobs:4 f []);
  Alcotest.(check (list int)) "jobs:0 clamps to sequential" (List.map f xs)
    (Exec.map ~jobs:0 f xs)

let test_mapi_order () =
  let xs = [ "a"; "b"; "c"; "d"; "e" ] in
  Alcotest.(check (list string)) "indices follow submission order"
    [ "0a"; "1b"; "2c"; "3d"; "4e" ]
    (Exec.mapi ~jobs:3 (fun i s -> string_of_int i ^ s) xs)

let test_default_jobs () =
  Exec.set_default_jobs 3;
  Alcotest.(check int) "set_default_jobs" 3 (Exec.default_jobs ());
  Exec.set_default_jobs 0;
  Alcotest.(check int) "clamped to 1" 1 (Exec.default_jobs ());
  Exec.set_default_jobs 1

exception Boom of int

let test_exception_rethrown () =
  match
    Exec.map ~jobs:4
      (fun i -> if i = 7 then raise (Boom i) else i)
      (List.init 20 Fun.id)
  with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom 7 -> ()

let test_earliest_exception_wins () =
  (* Jobs 3, 8, 13 and 18 all fail; the submitter must see the
     earliest submitted failure whatever order workers finish in. *)
  match
    Exec.map ~jobs:4
      (fun i -> if i mod 5 = 3 then raise (Boom i) else i)
      (List.init 20 Fun.id)
  with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom n -> Alcotest.(check int) "earliest failure" 3 n

let test_split_rngs_matches_loop () =
  (* Common.split_rngs must reproduce the historical sequential
     [Rng.split master] loop stream for stream. *)
  let a = Common.split_rngs (Rng.create 42) 6 in
  let master = Rng.create 42 in
  let b = List.init 6 (fun _ -> ()) |> List.map (fun () -> Rng.split master) in
  List.iter2
    (fun ra rb ->
      Alcotest.(check (list (float 0.0)))
        "same stream"
        (List.init 5 (fun _ -> Rng.float rb))
        (List.init 5 (fun _ -> Rng.float ra)))
    a b

let test_metrics_merge_equivalence () =
  (* A parallel map against the ambient registry must leave exactly
     the state the sequential run leaves: counters summed, gauges
     last-writer-wins, histogram buckets combined, series points in
     submission order. *)
  let work jobs =
    Obs.Runtime.clear ();
    let reg = Obs.Runtime.install_metrics () in
    ignore
      (Exec.map ~jobs
         (fun i ->
           match Obs.Runtime.metrics () with
           | None -> failwith "no ambient registry inside job"
           | Some r ->
             Obs.Metrics.Counter.add (Obs.Metrics.counter r "jobs.count") 1;
             Obs.Metrics.Gauge.set
               (Obs.Metrics.gauge r "jobs.last")
               (float_of_int i);
             Obs.Metrics.Histogram.observe
               (Obs.Metrics.histogram r "jobs.h")
               (float_of_int (i mod 7));
             Obs.Metrics.Series.add
               (Obs.Metrics.series r "jobs.s")
               (float_of_int i)
               (float_of_int (i * i)))
         (List.init 40 Fun.id));
    let out = Obs.Json.to_string (Obs.Metrics.to_json reg) in
    Obs.Runtime.clear ();
    out
  in
  let seq = work 1 in
  Alcotest.(check string) "jobs:4 registry == sequential" seq (work 4);
  Alcotest.(check string) "jobs:3 registry == sequential" seq (work 3)

let test_progress_observes_only () =
  (* A progress reporter is pure observation: installed, it sees every
     start and finish without changing results or ordering; the final
     snapshot reports the whole batch complete with nothing running. *)
  let xs = List.init 30 Fun.id in
  let f x = (x * 7) + 1 in
  let plain = Exec.map ~jobs:3 f xs in
  let snaps = ref [] in
  Exec.Progress.set_reporter (Some (fun s -> snaps := s :: !snaps));
  Fun.protect
    ~finally:(fun () -> Exec.Progress.set_reporter None)
    (fun () ->
      Alcotest.(check (list int))
        "reporter does not perturb jobs:3" plain (Exec.map ~jobs:3 f xs);
      (match !snaps with
      | last :: _ ->
        Alcotest.(check int) "final snapshot complete" 30
          last.Exec.Progress.completed;
        Alcotest.(check int) "total" 30 last.Exec.Progress.total;
        Alcotest.(check (list (pair int (float 1e9)))) "nothing running" []
          last.Exec.Progress.running
      | [] -> Alcotest.fail "reporter never called");
      (* Every task reports a start and a finish: 2N snapshots. *)
      Alcotest.(check int) "2N snapshots" 60 (List.length !snaps);
      snaps := [];
      Alcotest.(check (list int))
        "reporter does not perturb jobs:1" plain (Exec.map ~jobs:1 f xs);
      Alcotest.(check int) "sequential path reports too" 60
        (List.length !snaps));
  (* Reporter removed: maps still run and report nothing. *)
  snaps := [];
  Alcotest.(check (list int)) "uninstalled" plain (Exec.map ~jobs:3 f xs);
  Alcotest.(check int) "no snapshots" 0 (List.length !snaps)

(* --- end-to-end determinism across job counts --- *)

let fig4_json jobs =
  Obs.Json.to_string
    (Figure_json.fig4 (Fig4.run ~runs:8 ~seed:1 ~jobs Common.Residential))

let test_fig4_bytes_identical () =
  let j1 = fig4_json 1 in
  Alcotest.(check string) "fig4 --jobs 4 byte-identical" j1 (fig4_json 4);
  Alcotest.(check string) "fig4 --jobs 3 byte-identical" j1 (fig4_json 3)

let test_fig6_bytes_identical () =
  let j jobs =
    Obs.Json.to_string
      (Figure_json.fig6 (Fig6.run ~runs:6 ~seed:3 ~jobs Common.Residential))
  in
  Alcotest.(check string) "fig6 --jobs 4 byte-identical (option-filter path)"
    (j 1) (j 4)

let test_chaos_sweep_identical_checked () =
  (* The seeded chaos sweep under the runtime invariant checker: the
     parallel sweep must serialize byte-for-byte like the sequential
     runs, with every run audited (EMPOWER_CHECK=1). This test mutates
     the environment, so it runs last. *)
  Unix.putenv "EMPOWER_CHECK" "1";
  let specs = List.map (fun seed -> Chaos.spec ~seed ~duration:4.0 ()) [ 3; 7; 11 ] in
  let render = List.map (fun sc -> Obs.Json.to_string (Scenario.to_json sc)) in
  Alcotest.(check (list string)) "chaos sweep byte-identical under EMPOWER_CHECK"
    (render (List.map Scenario.run specs))
    (render (Scenario.run_all ~jobs:3 specs))

let () =
  Alcotest.run "exec"
    [
      ( "map",
        [
          Alcotest.test_case "order preserved" `Quick test_map_order;
          Alcotest.test_case "mapi indices" `Quick test_mapi_order;
          Alcotest.test_case "default jobs" `Quick test_default_jobs;
          Alcotest.test_case "exception rethrown" `Quick test_exception_rethrown;
          Alcotest.test_case "earliest exception wins" `Quick
            test_earliest_exception_wins;
          Alcotest.test_case "split_rngs matches loop" `Quick
            test_split_rngs_matches_loop;
          Alcotest.test_case "metrics merge equivalence" `Quick
            test_metrics_merge_equivalence;
          Alcotest.test_case "progress reporter observes only" `Quick
            test_progress_observes_only;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "fig4 json across jobs" `Slow
            test_fig4_bytes_identical;
          Alcotest.test_case "fig6 json across jobs" `Slow
            test_fig6_bytes_identical;
          Alcotest.test_case "chaos sweep checked" `Slow
            test_chaos_sweep_identical_checked;
        ] );
    ]
