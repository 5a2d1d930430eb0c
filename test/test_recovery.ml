(* Failure-detector flapping tests (lib/recovery). Crash/restart
   cycles — including cycles faster than hello_timeout — must not
   leak Suspect state across recoveries or declare a route dead
   twice without an intervening recovery: that is what keeps the
   engine from double-redistributing a flapping route's rate mass. *)

let frame = 1500.0

(* One ack-report window: [Ack] delivers bytes, [Miss] injects a
   full-rate window (> 2 frames) with nothing acked, [Idle] injects
   nothing. *)
type window = Ack | Miss | Idle

let observe det ~route ~now = function
  | Ack ->
    Recovery.Detector.observe det ~route ~now ~injected:(4.0 *. frame)
      ~acked:(4.0 *. frame) ~frame_bytes:frame
  | Miss ->
    Recovery.Detector.observe det ~route ~now ~injected:(4.0 *. frame)
      ~acked:0.0 ~frame_bytes:frame
  | Idle ->
    Recovery.Detector.observe det ~route ~now ~injected:0.0 ~acked:0.0
      ~frame_bytes:frame

let run_windows ?(dt = 0.1) windows =
  let det = Recovery.Detector.create ~n_routes:1 ~now:0.0 in
  List.mapi
    (fun i w ->
      let now = dt *. float_of_int (i + 1) in
      let v = observe det ~route:0 ~now w in
      (v, Recovery.Detector.suspicion det 0))
    windows
  |> fun verdicts -> (det, verdicts)

(* ---------- unit tests ---------- *)

let test_lifecycle () =
  let _, verdicts =
    run_windows [ Miss; Miss; Miss; Miss; Ack; Ack ]
  in
  match List.map fst verdicts with
  | [ Recovery.Detector.Suspect 1; Suspect 2; Down _; Still_down;
      Recovered _; Alive ] -> ()
  | _ -> Alcotest.fail "expected suspect/suspect/down/still/recovered/alive"

(* Flapping faster than the suspicion threshold: two misses then an
   ack, repeated. The route must never be declared dead and every ack
   must clear the miss count completely. *)
let test_fast_flap_no_leak () =
  let det, verdicts =
    run_windows
      (List.concat (List.init 20 (fun _ -> [ Miss; Miss; Ack ])))
  in
  Alcotest.(check bool) "never declared dead" false (Recovery.Detector.dead det 0);
  List.iter
    (fun (v, suspicion) ->
      match v with
      | Recovery.Detector.Down _ | Recovery.Detector.Still_down
      | Recovery.Detector.Recovered _ ->
        Alcotest.fail "fast flap must never reach Down"
      | Recovery.Detector.Alive ->
        Alcotest.(check int) "ack clears all suspicion" 0 suspicion
      | Recovery.Detector.Suspect k ->
        Alcotest.(check int) "suspicion equals verdict" k suspicion)
    verdicts

(* Full crash/restart cycles: every outage takes a fresh
   dead_ack_threshold misses — suspicion from the previous cycle must
   not carry over and shorten detection. *)
let test_slow_flap_full_threshold_each_cycle () =
  let cycle = [ Miss; Miss; Miss; Ack ] in
  let _, verdicts = run_windows (List.concat (List.init 10 (fun _ -> cycle))) in
  List.iteri
    (fun i (v, _) ->
      let pos = i mod List.length cycle in
      match (pos, v) with
      | 0, Recovery.Detector.Suspect 1 | 1, Recovery.Detector.Suspect 2 -> ()
      | 2, Recovery.Detector.Down _ -> ()
      | 3, Recovery.Detector.Recovered _ -> ()
      | _ ->
        Alcotest.failf "window %d: unexpected verdict at cycle position %d" i
          pos)
    verdicts

let test_recovered_down_for () =
  let det = Recovery.Detector.create ~n_routes:1 ~now:0.0 in
  ignore (observe det ~route:0 ~now:0.1 Miss);
  ignore (observe det ~route:0 ~now:0.2 Miss);
  (match observe det ~route:0 ~now:0.3 Miss with
  | Recovery.Detector.Down { since } ->
    Alcotest.(check (float 1e-9)) "since = last good time" 0.0 since
  | _ -> Alcotest.fail "third miss must declare Down");
  match observe det ~route:0 ~now:1.5 Ack with
  | Recovery.Detector.Recovered { down_for } ->
    Alcotest.(check (float 1e-9)) "down_for = now - declaration" 1.2 down_for
  | _ -> Alcotest.fail "ack on a dead route must report Recovered"

(* The hello-timeout path: traffic too slow for the k-miss rule
   (<= 2 frames per window) still pins the route dead once the
   outstanding bytes have seen no ack for hello_timeout. *)
let test_hello_timeout () =
  let det = Recovery.Detector.create ~n_routes:1 ~now:0.0 in
  let slow now =
    Recovery.Detector.observe det ~route:0 ~now ~injected:frame ~acked:0.0
      ~frame_bytes:frame
  in
  let rec drive now =
    if now > 3.0 then Alcotest.fail "hello timeout never fired"
    else
      match slow now with
      | Recovery.Detector.Down _ -> now
      | _ -> drive (now +. 0.1)
  in
  let fired = drive 0.1 in
  Alcotest.(check bool) "fires after hello_timeout" true
    (fired > Recovery.hello_timeout && fired <= Recovery.hello_timeout +. 0.2 +. 1e-9)

(* An idle route (nothing outstanding) never times out. *)
let test_idle_never_dies () =
  let det, verdicts = run_windows ~dt:0.5 (List.init 20 (fun _ -> Idle)) in
  Alcotest.(check bool) "idle route stays alive" false
    (Recovery.Detector.dead det 0);
  List.iter
    (fun (v, _) ->
      if v <> Recovery.Detector.Alive then
        Alcotest.fail "idle windows must stay Alive")
    verdicts

(* ---------- property: no leak, strict Down/Recovered alternation ---------- *)

let window_gen =
  QCheck.Gen.(
    map
      (fun b -> match b with 0 -> Ack | 1 -> Miss | _ -> Idle)
      (int_bound 2))

let arb_windows =
  QCheck.make
    ~print:(fun ws ->
      String.concat ""
        (List.map (function Ack -> "A" | Miss -> "M" | Idle -> "I") ws))
    QCheck.Gen.(list_size (int_range 1 200) window_gen)

let prop_no_leak =
  QCheck.Test.make ~name:"flapping leaks no Suspect state" ~count:300
    arb_windows (fun windows ->
      let det = Recovery.Detector.create ~n_routes:1 ~now:0.0 in
      let down = ref false in
      List.iteri
        (fun i w ->
          let now = 0.1 *. float_of_int (i + 1) in
          let v = observe det ~route:0 ~now w in
          let suspicion = Recovery.Detector.suspicion det 0 in
          (match v with
          | Recovery.Detector.Down _ ->
            if !down then
              QCheck.Test.fail_report "Down without intervening Recovered";
            down := true
          | Recovery.Detector.Recovered _ ->
            if not !down then
              QCheck.Test.fail_report "Recovered while not down";
            down := false;
            if suspicion <> 0 then
              QCheck.Test.fail_report "recovery must clear all suspicion"
          | Recovery.Detector.Still_down ->
            if not !down then
              QCheck.Test.fail_report "Still_down while not down"
          | Recovery.Detector.Alive ->
            if !down then QCheck.Test.fail_report "Alive while down";
            if suspicion <> 0 then
              QCheck.Test.fail_report "Alive with nonzero suspicion"
          | Recovery.Detector.Suspect k ->
            if !down then QCheck.Test.fail_report "Suspect while down";
            if k <> suspicion then
              QCheck.Test.fail_report "Suspect verdict disagrees with accessor");
          (* The exported dead flag must agree with the verdict fold. *)
          if Recovery.Detector.dead det 0 <> !down then
            QCheck.Test.fail_report "dead flag out of sync with verdicts";
          (* While alive, suspicion is strictly below the declaration
             threshold — the detector never sits on a primed trigger. *)
          if (not !down) && suspicion >= Recovery.dead_ack_threshold then
            QCheck.Test.fail_report "alive route at or above threshold")
        windows;
      true)

let () =
  Alcotest.run "recovery"
    [
      ( "detector",
        [
          ("lifecycle", `Quick, test_lifecycle);
          ("fast flap leaks nothing", `Quick, test_fast_flap_no_leak);
          ("full threshold each cycle", `Quick,
           test_slow_flap_full_threshold_each_cycle);
          ("recovered down_for", `Quick, test_recovered_down_for);
          ("hello timeout", `Quick, test_hello_timeout);
          ("idle never dies", `Quick, test_idle_never_dies);
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_no_leak ]);
    ]
