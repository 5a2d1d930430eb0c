(* Tests for the Reno TCP state machine. *)

let check_float ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.6f, got %.6f" msg expected actual

(* Every sender of this file reads the time from one clock cell; the
   helpers below set it, then make the call at that time. *)
let clock = [| 0.0 |]
let mk ?params ?total () = Tcp.create ?params ~clock ~total_bytes:total ()

let take t ~now =
  clock.(0) <- now;
  Tcp.take_segment t

let ack ~ece t ~now ~cum_ack =
  clock.(0) <- now;
  Tcp.on_ack ~ece t ~cum_ack

let rto t ~now =
  clock.(0) <- now;
  Tcp.on_rto t

(* The pending timer's deadline; nan when none. *)
let timer t = (Tcp.rto_deadline_cell t).(0)

let test_initial_state () =
  let t = mk () in
  check_float "cwnd" 2.0 (Tcp.cwnd t);
  Alcotest.(check int) "una" 0 (Tcp.snd_una t);
  Alcotest.(check int) "in flight" 0 (Tcp.in_flight t);
  Alcotest.(check bool) "no timer" true (Float.is_nan (timer t));
  Alcotest.(check bool) "unbounded never finishes" false (Tcp.finished t)

let test_segment_count () =
  let t = mk ~total:25000 () in
  (* 25 kB at 12 kB segments -> 3 segments. *)
  Alcotest.(check (option int)) "3 segments" (Some 3) (Tcp.segments_total t)

let test_window_limits_sending () =
  let t = mk () in
  Alcotest.(check int) "seg 0" 0 (take t ~now:0.0);
  Alcotest.(check int) "seg 1" 1 (take t ~now:0.0);
  Alcotest.(check int) "window full" (-1) (take t ~now:0.0);
  Alcotest.(check bool) "timer armed" true (not (Float.is_nan (timer t)))

let test_slow_start_growth () =
  let t = mk () in
  ignore (take t ~now:0.0);
  ignore (take t ~now:0.0);
  ack ~ece:false t ~now:0.1 ~cum_ack:2;
  (* Two segments acked in slow start: cwnd 2 -> 4. *)
  check_float "cwnd grew" 4.0 (Tcp.cwnd t);
  Alcotest.(check int) "una advanced" 2 (Tcp.snd_una t);
  Alcotest.(check bool) "rtt sampled" true (Tcp.srtt t > 0.0)

let test_congestion_avoidance_growth () =
  let params = { Tcp.default_params with init_ssthresh = 2.0 } in
  let t = mk ~params () in
  ignore (take t ~now:0.0);
  ignore (take t ~now:0.0);
  ack ~ece:false t ~now:0.1 ~cum_ack:2;
  (* Above ssthresh: cwnd += newly_acked / cwnd = 2/2 = 1. *)
  check_float "linear growth" 3.0 (Tcp.cwnd t)

let test_fast_retransmit () =
  let t = mk () in
  (* Send 5 segments (grow window first). *)
  ignore (take t ~now:0.0);
  ignore (take t ~now:0.0);
  ack ~ece:false t ~now:0.05 ~cum_ack:2;
  for _ = 1 to 4 do
    ignore (take t ~now:0.1)
  done;
  (* Segment 2 lost; three dup acks for 2. *)
  ack ~ece:false t ~now:0.2 ~cum_ack:2;
  ack ~ece:false t ~now:0.21 ~cum_ack:2;
  Alcotest.(check bool) "not yet retransmitting" true
    (Tcp.retransmissions t = 0);
  ack ~ece:false t ~now:0.22 ~cum_ack:2;
  (* Fast retransmit queued: next take returns seq 2 again. *)
  Alcotest.(check int) "retransmit 2" 2 (take t ~now:0.23);
  Alcotest.(check int) "counted" 1 (Tcp.retransmissions t);
  Alcotest.(check bool) "ssthresh dropped" true (Tcp.ssthresh t <= 3.0)

let test_recovery_exit () =
  let t = mk () in
  ignore (take t ~now:0.0);
  ignore (take t ~now:0.0);
  ack ~ece:false t ~now:0.05 ~cum_ack:2;
  for _ = 1 to 4 do
    ignore (take t ~now:0.1)
  done;
  for i = 1 to 3 do
    ack ~ece:false t ~now:(0.2 +. (0.01 *. float_of_int i)) ~cum_ack:2
  done;
  ignore (take t ~now:0.25);
  (* Full cumulative ack past everything sent: recovery exits, cwnd =
     ssthresh. *)
  ack ~ece:false t ~now:0.3 ~cum_ack:6;
  check_float "cwnd = ssthresh" (Tcp.ssthresh t) (Tcp.cwnd t);
  Alcotest.(check int) "una" 6 (Tcp.snd_una t)

let test_rto_go_back_n () =
  let t = mk () in
  ignore (take t ~now:0.0);
  ignore (take t ~now:0.0);
  ack ~ece:false t ~now:0.05 ~cum_ack:1;
  ignore (take t ~now:0.1);
  ignore (take t ~now:0.1);
  (* Timeout: cwnd collapses, everything from una re-sent. *)
  rto t ~now:2.0;
  check_float "cwnd 1" 1.0 (Tcp.cwnd t);
  Alcotest.(check int) "in flight reset" 0 (Tcp.in_flight t);
  let seq = take t ~now:2.0 in
  if seq < 0 then Alcotest.fail "expected a retransmission";
  Alcotest.(check int) "resend from una" (Tcp.snd_una t) seq;
  Alcotest.(check bool) "marked as retransmission" true (Tcp.retransmissions t > 0)

let test_rto_backoff () =
  let t = mk () in
  ignore (take t ~now:0.0);
  let deadline () =
    let d = timer t in
    if Float.is_nan d then Alcotest.fail "expected a pending timer";
    d
  in
  let d1 = deadline () in
  rto t ~now:d1;
  let d2 = deadline () in
  rto t ~now:d2;
  let d3 = deadline () in
  Alcotest.(check bool) "exponential backoff" true (d3 -. d2 > (d2 -. d1) *. 1.5)

let test_finished () =
  let t = mk ~total:20000 () in
  (* 2 segments. *)
  ignore (take t ~now:0.0);
  ignore (take t ~now:0.0);
  Alcotest.(check int) "no more data" (-1) (take t ~now:0.0);
  ack ~ece:false t ~now:0.1 ~cum_ack:2;
  Alcotest.(check bool) "finished" true (Tcp.finished t);
  Alcotest.(check bool) "timer cleared" true (Float.is_nan (timer t))

let test_rtt_estimation () =
  let t = mk () in
  ignore (take t ~now:0.0);
  ack ~ece:false t ~now:0.08 ~cum_ack:1;
  check_float ~eps:1e-6 "first srtt = rtt" 0.08 (Tcp.srtt t);
  ignore (take t ~now:0.1);
  ack ~ece:false t ~now:0.26 ~cum_ack:2;
  (* srtt = 0.875*0.08 + 0.125*0.16 = 0.09. *)
  check_float ~eps:1e-6 "ewma" 0.09 (Tcp.srtt t)

let test_dupack_ignored_when_idle () =
  let t = mk () in
  (* Nothing in flight: dup acks must not trigger anything. *)
  ack ~ece:false t ~now:0.1 ~cum_ack:0;
  ack ~ece:false t ~now:0.2 ~cum_ack:0;
  ack ~ece:false t ~now:0.3 ~cum_ack:0;
  check_float "cwnd unchanged" 2.0 (Tcp.cwnd t);
  Alcotest.(check int) "no retransmissions" 0 (Tcp.retransmissions t)

(* Property: simulate an ideal lossless pipe; TCP must deliver all
   segments, never shrink below 1 segment, and keep in_flight within
   the window. *)
let prop_lossless_pipe_completes =
  QCheck.Test.make ~name:"lossless pipe completes in order" ~count:40
    QCheck.(pair (int_range 1 60) (int_bound 10000))
    (fun (segments, seed) ->
      let rng = Rng.create seed in
      let t = mk ~total:(segments * Tcp.default_params.Tcp.segment_bytes) () in
      let now = ref 0.0 in
      let inflight = Queue.create () in
      let received = ref 0 in
      let steps = ref 0 in
      while (not (Tcp.finished t)) && !steps < 10000 do
        incr steps;
        let seq = take t ~now:!now in
        if seq >= 0 then Queue.push seq inflight;
        now := !now +. (0.001 +. Rng.float rng *. 0.01);
        if not (Queue.is_empty inflight) then begin
          let seq = Queue.pop inflight in
          if seq = !received then incr received;
          ack ~ece:false t ~now:!now ~cum_ack:!received
        end;
        if float_of_int (Tcp.in_flight t) > Tcp.cwnd t +. 1.0 then steps := 100000
      done;
      Tcp.finished t && !received = segments)

(* ---------- DCTCP variant ---------- *)

let dctcp_g = match Tcp.dctcp_params.Tcp.variant with
  | Tcp.Dctcp { g } -> g
  | Tcp.Reno -> assert false

let send_all t ~now =
  let rec go () = if take t ~now >= 0 then go () in
  go ()

(* One fully-marked observation window: send a whole cwnd, then ack
   it with a single ECE-carrying cumulative ack (F = 1 at rollover). *)
let marked_window t ~now =
  send_all t ~now;
  ack ~ece:true t ~now:(now +. 0.05)
    ~cum_ack:(Tcp.snd_una t + Tcp.in_flight t)

let test_dctcp_alpha_closed_form () =
  (* k fully-marked windows from alpha = 0: the EWMA
     alpha <- (1-g) alpha + g has the closed form
     alpha_k = 1 - (1-g)^k. *)
  let t = mk ~params:Tcp.dctcp_params () in
  check_float "alpha starts at 0" 0.0 (Tcp.dctcp_alpha t);
  for k = 1 to 20 do
    marked_window t ~now:(0.2 *. float_of_int k);
    check_float ~eps:1e-12
      (Printf.sprintf "alpha after %d marked windows" k)
      (1.0 -. ((1.0 -. dctcp_g) ** float_of_int k))
      (Tcp.dctcp_alpha t)
  done

let test_dctcp_first_cut_exact () =
  (* First marked window: slow-start growth doubles cwnd 2 -> 4, then
     the rollover folds in alpha = g and cuts by alpha/2 once. *)
  let t = mk ~params:Tcp.dctcp_params () in
  marked_window t ~now:0.0;
  check_float ~eps:1e-12 "cwnd = 4 (1 - g/2)"
    (4.0 *. (1.0 -. (dctcp_g /. 2.0)))
    (Tcp.cwnd t);
  check_float ~eps:1e-12 "ssthresh follows the cut" (Tcp.cwnd t)
    (Tcp.ssthresh t)

let test_dctcp_cut_bounds () =
  (* Under sustained full marking alpha -> 1, so each cut approaches
     a Reno halving but never exceeds it, and cwnd never drops below
     one segment. *)
  let t = mk ~params:Tcp.dctcp_params () in
  for k = 1 to 200 do
    let before = Tcp.cwnd t in
    marked_window t ~now:(0.2 *. float_of_int k);
    let after = Tcp.cwnd t in
    Alcotest.(check bool) "alpha bounded" true
      (Tcp.dctcp_alpha t >= 0.0 && Tcp.dctcp_alpha t <= 1.0);
    Alcotest.(check bool) "cut at most a halving" true
      (after >= (before /. 2.0) -. 1e-9);
    Alcotest.(check bool) "cwnd floor" true (after >= 1.0)
  done;
  Alcotest.(check bool) "alpha converged to 1" true
    (Tcp.dctcp_alpha t > 0.999)

let test_dctcp_reno_equivalence_unmarked () =
  (* With no CE marks the DCTCP machinery is inert: an identical
     drive (slow start, fast retransmit, recovery, RTO) leaves the
     two variants in identical states at every step. *)
  let drive params =
    let t = mk ~params () in
    let log = ref [] in
    let snap () =
      log := (Tcp.cwnd t, Tcp.ssthresh t, Tcp.snd_una t, Tcp.in_flight t) :: !log
    in
    send_all t ~now:0.0;
    ack ~ece:false t ~now:0.05 ~cum_ack:2;
    snap ();
    send_all t ~now:0.1;
    ack ~ece:false t ~now:0.2 ~cum_ack:2;
    ack ~ece:false t ~now:0.21 ~cum_ack:2;
    ack ~ece:false t ~now:0.22 ~cum_ack:2;
    snap ();
    ack ~ece:false t ~now:0.3 ~cum_ack:6;
    snap ();
    rto t ~now:1.0;
    snap ();
    send_all t ~now:1.1;
    ack ~ece:false t ~now:1.2 ~cum_ack:7;
    snap ();
    (t, List.rev !log)
  in
  let dctcp, dctcp_log = drive Tcp.dctcp_params in
  let _, reno_log = drive Tcp.default_params in
  List.iteri
    (fun i ((rc, rs, ru, rf), (dc, ds, du, df)) ->
      let step = Printf.sprintf "step %d" i in
      check_float (step ^ " cwnd") rc dc;
      check_float (step ^ " ssthresh") rs ds;
      Alcotest.(check int) (step ^ " una") ru du;
      Alcotest.(check int) (step ^ " in flight") rf df)
    (List.combine reno_log dctcp_log);
  check_float "alpha never moved" 0.0 (Tcp.dctcp_alpha dctcp)

let () =
  Alcotest.run "tcp"
    [
      ( "reno",
        [
          Alcotest.test_case "initial state" `Quick test_initial_state;
          Alcotest.test_case "segment count" `Quick test_segment_count;
          Alcotest.test_case "window limits" `Quick test_window_limits_sending;
          Alcotest.test_case "slow start" `Quick test_slow_start_growth;
          Alcotest.test_case "congestion avoidance" `Quick
            test_congestion_avoidance_growth;
          Alcotest.test_case "fast retransmit" `Quick test_fast_retransmit;
          Alcotest.test_case "recovery exit" `Quick test_recovery_exit;
          Alcotest.test_case "rto go-back-n" `Quick test_rto_go_back_n;
          Alcotest.test_case "rto backoff" `Quick test_rto_backoff;
          Alcotest.test_case "finished" `Quick test_finished;
          Alcotest.test_case "rtt estimation" `Quick test_rtt_estimation;
          Alcotest.test_case "idle dupacks" `Quick test_dupack_ignored_when_idle;
          QCheck_alcotest.to_alcotest prop_lossless_pipe_completes;
        ] );
      ( "dctcp",
        [
          Alcotest.test_case "alpha EWMA closed form" `Quick
            test_dctcp_alpha_closed_form;
          Alcotest.test_case "first cut exact" `Quick test_dctcp_first_cut_exact;
          Alcotest.test_case "cut bounds" `Quick test_dctcp_cut_bounds;
          Alcotest.test_case "reno equivalence unmarked" `Quick
            test_dctcp_reno_equivalence_unmarked;
        ] );
    ]
