(* Smoke and invariant tests for the experiment modules: each figure
   runner executes at tiny scale, produces structurally sound data and
   prints without raising. These are integration tests of the whole
   stack (topology -> routing -> control -> baselines -> engine). *)

let quiet f =
  (* The printers write to stdout; capture and discard. *)
  let devnull = open_out "/dev/null" in
  let saved = Unix.dup Unix.stdout in
  flush stdout;
  Unix.dup2 (Unix.descr_of_out_channel devnull) Unix.stdout;
  let restore () =
    flush stdout;
    Unix.dup2 saved Unix.stdout;
    Unix.close saved;
    close_out devnull
  in
  (try f () with e -> restore (); raise e);
  restore ()

let test_common_flows () =
  let rng = Rng.create 1 in
  let inst = Common.generate Common.Residential rng in
  for _ = 1 to 50 do
    let s, d = Common.random_flow rng inst in
    Alcotest.(check bool) "src is dual" true (List.mem s (Builder.dual_nodes inst));
    Alcotest.(check bool) "distinct" true (s <> d)
  done;
  let flows = Common.random_flows rng inst ~n:3 in
  Alcotest.(check int) "three flows" 3 (List.length flows);
  let srcs = List.map fst flows in
  Alcotest.(check int) "distinct sources" 3 (List.length (List.sort_uniq compare srcs))

let test_fig4_structure () =
  let d = Fig4.run ~runs:4 ~seed:1 Common.Residential in
  Alcotest.(check int) "schemes recorded" (List.length Fig4.schemes)
    (List.length d.Fig4.samples);
  List.iter
    (fun (_, xs) ->
      Alcotest.(check int) "one sample per run" 4 (List.length xs);
      List.iter
        (fun v -> Alcotest.(check bool) "finite" true (Float.is_finite v && v >= 0.0))
        xs)
    d.Fig4.samples;
  quiet (fun () -> Fig4.print d)

let test_fig5_structure () =
  let d = Fig5.run ~runs:10 ~seed:2 Common.Residential in
  Alcotest.(check bool) "worst set bounded" true (d.Fig5.worst_count <= 2 + (10 / 5));
  List.iter
    (fun r -> Alcotest.(check bool) "positive ratio" true (r > 0.0))
    d.Fig5.ratios;
  quiet (fun () -> Fig5.print d)

let test_fig6_ratios_bounded () =
  let d = Fig6.run ~runs:4 ~seed:3 Common.Residential in
  List.iter
    (fun (nm, xs) ->
      List.iter
        (fun r ->
          if r > 1.10 then
            Alcotest.failf "%s achieves %.2f of the exact optimum" nm r)
        xs)
    d.Fig6.ratios;
  (* conservative opt is a real optimum: it should be close to 1. *)
  (match List.assoc_opt "conservative opt" d.Fig6.ratios with
  | Some (_ :: _ as xs) ->
    Alcotest.(check bool) "conservative opt near 1" true (Stats.mean xs > 0.8)
  | _ -> Alcotest.fail "missing conservative opt");
  quiet (fun () -> Fig6.print d)

let test_fig7_structure () =
  let d = Fig7.run ~runs:3 ~seed:4 Common.Residential in
  List.iter
    (fun (nm, xs) ->
      List.iter
        (fun r ->
          if r > 1.05 then Alcotest.failf "%s utility ratio %.2f > 1" nm r)
        xs)
    d.Fig7.ratios;
  quiet (fun () -> Fig7.print d)

let test_convergence_ordering () =
  let d = Convergence.run ~runs:4 ~seed:5 ~bp_slots:6000 Common.Residential in
  (match (d.Convergence.empower_warm, d.Convergence.backpressure) with
  | _ :: _, _ :: _ ->
    Alcotest.(check bool) "EMPoWER warm converges much faster than backpressure"
      true
      (Stats.mean d.Convergence.empower_warm
      < Stats.mean d.Convergence.backpressure)
  | _ -> Alcotest.fail "missing data");
  quiet (fun () -> Convergence.print d)

let test_fig9_narrative () =
  let d = Fig9.run ~time_scale:0.02 () in
  (* Multipath beats the best single path before the contender. *)
  Alcotest.(check bool) "multipath gain" true
    (d.Fig9.mean_before > d.Fig9.best_single_path *. 1.1);
  (* During contention the flow loses some rate but stays alive. *)
  Alcotest.(check bool) "contention costs throughput" true
    (d.Fig9.mean_during < d.Fig9.mean_before);
  Alcotest.(check bool) "still alive during contention" true (d.Fig9.mean_during > 5.0);
  (* And it recovers afterwards. *)
  Alcotest.(check bool) "recovers" true
    (d.Fig9.mean_after > d.Fig9.mean_during);
  quiet (fun () -> Fig9.print d)

let test_fig10_structure () =
  let d = Fig10.run ~pairs:6 ~seed:10 () in
  List.iter
    (fun (_, xs) ->
      List.iter
        (fun r -> Alcotest.(check bool) "ratio finite" true (Float.is_finite r && r >= 0.0))
        xs)
    d.Fig10.ratios;
  List.iter
    (fun v -> Alcotest.(check bool) "early fraction sane" true (v > 0.0 && v < 2.5))
    d.Fig10.early;
  quiet (fun () -> Fig10.print d)

let test_table1_tiny_short () =
  (* Only the quick rows at tiny scale: completion times positive and
     short files faster than long ones. *)
  let d = Table1.run ~seed:12 ~repeats:2 ~long_scale:0.005 () in
  let (cc_tiny, _) = d.Table1.tiny and (cc_short, _) = d.Table1.short in
  Alcotest.(check bool) "tiny completes" true (cc_tiny.Table1.runs > 0);
  Alcotest.(check bool) "short completes" true (cc_short.Table1.runs > 0);
  Alcotest.(check bool) "tiny faster than short" true
    (cc_tiny.Table1.mean < cc_short.Table1.mean);
  quiet (fun () -> Table1.print d)

(* test/golden/table1_seed12_runs2.json is the exact `empower_eval
   table1 --runs 2 --json` output (seed 12, the default): every TCP
   download of Table 1, with and without CC. Replaying it must
   reproduce it byte for byte; a change to the TCP sender or to the
   engine's timer events that moves one completion time, or one tie
   between same-time events, shows here. Regenerate with that command
   if an intentional engine or format change lands. *)
let test_table1_golden () =
  let golden =
    match Obs.Json.read_file (Filename.concat "golden" "table1_seed12_runs2.json") with
    | Ok s -> String.trim s
    | Error m -> Alcotest.fail m
  in
  Golden.check "golden table1 byte-identical" ~golden
    (Obs.Json.to_string (Figure_json.table1 (Table1.run ~seed:12 ~repeats:2 ())))

let test_fig12_tcp_works () =
  let d = Fig12.run ~seed:13 ~phase_seconds:60.0 () in
  Alcotest.(check bool) "EMPoWER TCP delivers" true (d.Fig12.mean_empower > 1.0);
  Alcotest.(check bool) "single path TCP delivers" true (d.Fig12.mean_sp > 1.0);
  quiet (fun () -> Fig12.print d)

let test_runner_helpers () =
  let inst = Testbed.generate (Rng.create 4242) in
  let net = Runner.network inst Schemes.Empower in
  let routes, rates =
    Runner.routes_and_rates net Schemes.Empower ~src:0 ~dst:12
  in
  Alcotest.(check int) "rates match routes" (List.length routes) (List.length rates);
  let spec = Runner.flow_spec ~src:0 ~dst:12 (routes, rates) in
  Alcotest.(check bool) "spec wired" true (spec.Engine.src = 0 && spec.Engine.dst = 12)

let test_ablation_n_monotone () =
  (* The routing-level invariant: the n=5 exploration tree contains
     every n=1 branch, so its best combination is at least as good.
     (The CC allocation on top adds controller noise, so we check the
     routing totals.) *)
  for seed = 1 to 10 do
    let inst = Residential.generate (Rng.create (900 + seed)) in
    let g = Builder.graph inst Builder.Hybrid in
    let dom = Domain.of_instance inst Builder.Hybrid g in
    let t1 = (Multipath.find ~n:1 g dom ~src:0 ~dst:9).Multipath.total_rate in
    let t5 = (Multipath.find ~n:5 g dom ~src:0 ~dst:9).Multipath.total_rate in
    if t5 < t1 -. 1e-6 then
      Alcotest.failf "seed %d: n=5 total %.3f < n=1 total %.3f" seed t5 t1
  done;
  let d = Ablations.n_shortest ~runs:4 ~seed:21 () in
  quiet (fun () -> Ablations.print d)

let test_ablation_delta_monotone () =
  let d = Ablations.delta ~runs:6 ~seed:23 () in
  let rates = List.map (fun p -> p.Ablations.mean_rate) d.Ablations.points in
  (* Throughput decreases as the margin grows. *)
  let rec decreasing = function
    | a :: (b :: _ as tl) -> a >= b -. 0.3 && decreasing tl
    | _ -> true
  in
  Alcotest.(check bool) "monotone in delta" true (decreasing rates)

let () =
  Alcotest.run "experiments"
    [
      ( "common",
        [ Alcotest.test_case "random flows" `Quick test_common_flows ] );
      ( "simulation-figures",
        [
          Alcotest.test_case "fig4 structure" `Quick test_fig4_structure;
          Alcotest.test_case "fig5 structure" `Quick test_fig5_structure;
          Alcotest.test_case "fig6 bounded by optimal" `Quick test_fig6_ratios_bounded;
          Alcotest.test_case "fig7 structure" `Quick test_fig7_structure;
          Alcotest.test_case "convergence ordering" `Quick test_convergence_ordering;
        ] );
      ( "testbed-figures",
        [
          Alcotest.test_case "fig9 narrative" `Quick test_fig9_narrative;
          Alcotest.test_case "fig10 structure" `Quick test_fig10_structure;
          Alcotest.test_case "table1 tiny/short" `Quick test_table1_tiny_short;
          Alcotest.test_case "table1 golden replay" `Quick test_table1_golden;
          Alcotest.test_case "fig12 tcp" `Quick test_fig12_tcp_works;
          Alcotest.test_case "runner helpers" `Quick test_runner_helpers;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "n monotone" `Quick test_ablation_n_monotone;
          Alcotest.test_case "delta monotone" `Quick test_ablation_delta_monotone;
        ] );
    ]
