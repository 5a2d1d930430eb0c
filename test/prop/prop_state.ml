(* The per-frame state against its reference implementations
   ([Reference]), bit for bit: the destination's seq-indexed reorder
   ring against the [Int_map] buffer, the TCP sender's send-time ring
   against the [Hashtbl] table, and the dense histogram against the
   [Hashtbl] one.

   Each case is a pure function of the printed integer seed. A failure
   prints the seed, the step and both sides. *)

let seed_gen = QCheck.int_bound 999_999

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* ---------- Reorder ---------- *)

let pp_events evs =
  String.concat " "
    (List.map
       (function
         | Reorder.Deliver (s, p) -> Printf.sprintf "D%d:%d" s p
         | Reorder.Lost s -> Printf.sprintf "L%d" s)
       evs)

(* The arrivals of one flow at its destination. The sender spreads
   seqs 0..n-1 over the routes and each route drops some and delivers
   the rest in order; the arrivals interleave the routes at random.
   Mixed in: duplicates and late seqs (already released), far-ahead
   seqs that make the ring grow, and uniform (route, seq) pairs. *)
let reorder_arrivals rng ~n_routes =
  let n = 1 + Rng.int rng 300 in
  let drop = Rng.uniform rng 0.0 0.3 in
  let routes = Array.make n_routes [] in
  for seq = n - 1 downto 0 do
    let r = Rng.int rng n_routes in
    if Rng.float rng >= drop then routes.(r) <- seq :: routes.(r)
  done;
  let out = ref [] in
  let top = ref 1 in  (* one past the highest seq a route has delivered *)
  let remaining () = Array.exists (fun q -> q <> []) routes in
  while remaining () || Rng.int rng 4 = 0 do
    match Rng.int rng 12 with
    | 0 -> (* duplicate or late *) out := (Rng.int rng n_routes, Rng.int rng !top) :: !out
    | 1 -> out := (Rng.int rng n_routes, n + Rng.int rng 3000) :: !out
    | 2 -> out := (Rng.int rng n_routes, Rng.int rng (n + 20)) :: !out
    | _ -> (
      let r = Rng.int rng n_routes in
      match routes.(r) with
      | [] -> ()
      | seq :: rest ->
        routes.(r) <- rest;
        top := max !top (seq + 1);
        out := (r, seq) :: !out)
  done;
  List.rev !out

let prop_reorder =
  QCheck.Test.make ~count:300
    ~name:"reorder ring = Int_map reference, bit for bit (1-5 routes, losses on/off)"
    seed_gen (fun seed ->
      let rng = Rng.create (0x4E0 + seed) in
      let n_routes = 1 + Rng.int rng 5 in
      let declare_losses = Rng.bool rng in
      let got = Reorder.create ~declare_losses ~n_routes ()
      and want = Reference.Reorder.create ~declare_losses ~n_routes () in
      List.iteri
        (fun i (route, seq) ->
          (* The payload is the arrival's index: a slot that hands back
             another arrival's payload shows up in the events. *)
          let e = Reorder.push got ~route ~seq i
          and e' = Reference.Reorder.push want ~route ~seq i in
          let fail what =
            QCheck.Test.fail_reportf
              "seed %d (%d routes, losses %b), arrival %d (route %d, seq %d): %s" seed
              n_routes declare_losses i route seq what
          in
          if e <> e' then
            fail (Printf.sprintf "events [%s], reference [%s]" (pp_events e) (pp_events e'));
          if Reorder.pending got <> Reference.Reorder.pending want then
            fail
              (Printf.sprintf "pending %d, reference %d" (Reorder.pending got)
                 (Reference.Reorder.pending want));
          if Reorder.next_expected got <> Reference.Reorder.next_expected want then
            fail
              (Printf.sprintf "next_expected %d, reference %d" (Reorder.next_expected got)
                 (Reference.Reorder.next_expected want)))
        (reorder_arrivals rng ~n_routes);
      true)

(* ---------- Tcp ---------- *)

(* Every accessor of both senders, as text; equal strings mean equal
   bits ([%h] prints a float exactly). *)
let tcp_state t =
  let f = Printf.sprintf "%h" in
  String.concat " "
    [
      "cwnd=" ^ f (Tcp.cwnd t);
      "ssthresh=" ^ f (Tcp.ssthresh t);
      "alpha=" ^ f (Tcp.dctcp_alpha t);
      "srtt=" ^ f (Tcp.srtt t);
      Printf.sprintf "una=%d in_flight=%d retx=%d finished=%b" (Tcp.snd_una t)
        (Tcp.in_flight t) (Tcp.retransmissions t) (Tcp.finished t);
      (let d = (Tcp.rto_deadline_cell t).(0) in
       "rto=" ^ if Float.is_nan d then "none" else f d);
    ]

let ref_state (t : Reference.Tcp.t) =
  let module R = Reference.Tcp in
  let f = Printf.sprintf "%h" in
  String.concat " "
    [
      "cwnd=" ^ f (R.cwnd t);
      "ssthresh=" ^ f (R.ssthresh t);
      "alpha=" ^ f (R.dctcp_alpha t);
      "srtt=" ^ f (R.srtt t);
      Printf.sprintf "una=%d in_flight=%d retx=%d finished=%b" (R.snd_una t)
        (R.in_flight t) (R.retransmissions t) (R.finished t);
      "rto=" ^ (match R.rto_deadline t with None -> "none" | Some d -> f d);
    ]

(* A random drive of one sender: bursts of [take_segment] (some under a
   [new_data_limit]), cumulative acks that duplicate, advance inside
   the window, jump past [next_new] (a receiver that buffered segments
   before a go-back-N reset) or lag behind [una], each with a random
   ECE echo, and timeouts. Time moves forward by random steps, so RTT
   samples read real send times. *)
let prop_tcp =
  QCheck.Test.make ~count:300
    ~name:"TCP send-time ring = Hashtbl reference, bit for bit (Reno, DCTCP)" seed_gen
    (fun seed ->
      let rng = Rng.create (0x7C9 + seed) in
      let base = if Rng.bool rng then Tcp.default_params else Tcp.dctcp_params in
      (* Half the senders start with a wide window, so the ring grows
         while segments are in flight. *)
      let wide = Rng.bool rng in
      let params =
        {
          base with
          Tcp.init_cwnd = (if wide then Rng.uniform rng 60.0 300.0 else base.Tcp.init_cwnd);
          init_ssthresh = (if wide then 1000.0 else base.Tcp.init_ssthresh);
          max_cwnd = (if Rng.bool rng then 1000.0 else Rng.uniform rng 2.0 400.0);
        }
      in
      let total_bytes =
        if Rng.bool rng then None
        else Some (1 + Rng.int rng (2000 * params.Tcp.segment_bytes))
      in
      (* The sender reads the time from [clock], set before each call
         to the [now] the reference is handed. *)
      let clock = [| 0.0 |] in
      let got = Tcp.create ~params ~clock ~total_bytes ()
      and want = Reference.Tcp.create ~params ~total_bytes () in
      let now = ref 0.0 in
      let step = ref 0 in
      let check what =
        let a = tcp_state got and b = ref_state want in
        if a <> b then
          QCheck.Test.fail_reportf "seed %d (%s), step %d after %s:\n  %s\n  reference %s"
            seed
            (match params.Tcp.variant with Tcp.Reno -> "Reno" | Tcp.Dctcp _ -> "DCTCP")
            !step what a b
      in
      for _ = 1 to 100 + Rng.int rng 400 do
        incr step;
        now := !now +. (if Rng.int rng 8 = 0 then 0.0 else Rng.uniform rng 0.0 0.05);
        let now = !now in
        clock.(0) <- now;
        match Rng.int rng 10 with
        | 0 | 1 | 2 | 3 ->
          let new_data_limit =
            if Rng.int rng 4 = 0 then Some (Tcp.snd_una got + Rng.int rng 60) else None
          in
          let burst = 1 + Rng.int rng 60 in
          let rec take k =
            if k > 0 then begin
              (* The reference returns [None] where the sender
                 returns -1. *)
              let a = Tcp.take_segment ?new_data_limit got
              and b = Reference.Tcp.take_segment ?new_data_limit want ~now in
              if a <> (match b with None -> -1 | Some s -> s) then
                QCheck.Test.fail_reportf "seed %d, step %d: take_segment %d, reference %s"
                  seed !step a
                  (match b with None -> "none" | Some s -> string_of_int s);
              check "take_segment";
              if a >= 0 then take (k - 1)
            end
          in
          take burst
        | 4 | 5 | 6 | 7 | 8 ->
          let una = Tcp.snd_una got and flight = max 0 (Tcp.in_flight got) in
          let cum_ack =
            match Rng.int rng 8 with
            | 0 | 1 -> una
            | 2 -> max 0 (una - 1 - Rng.int rng 3)
            | 3 -> una + 1 + Rng.int rng (flight + 20)
            | 4 | 5 -> una + 1
            | _ -> una + Rng.int rng (flight + 1)
          in
          let ece = Rng.int rng 3 = 0 in
          Tcp.on_ack ~ece got ~cum_ack;
          Reference.Tcp.on_ack ~ece want ~now ~cum_ack;
          check (Printf.sprintf "on_ack %d%s" cum_ack (if ece then " ECE" else ""))
        | _ ->
          Tcp.on_rto got;
          Reference.Tcp.on_rto want ~now;
          check "on_rto"
      done;
      true)

(* ---------- Histogram ---------- *)

let quantile_grid = [ 0.0; 1e-4; 0.01; 0.1; 0.25; 0.5; 0.75; 0.9; 0.95; 0.99; 0.999; 1.0 ]

(* One observation: at or below the zero floor, a frame delay, or
   anywhere across the finite positive range. *)
let observation rng =
  match Rng.int rng 8 with
  | 0 -> Rng.pick rng [| 0.0; -3.0; -0.0; 1e-12; 5e-13; 1.0000001e-12 |]
  | 1 -> Float.pow 10.0 (Rng.uniform rng (-11.5) 300.0)
  | 2 -> Float.pow 10.0 (Rng.uniform rng (-11.5) 12.0)
  | _ -> Rng.uniform rng 1e-4 0.5

let prop_histogram =
  QCheck.Test.make ~count:200
    ~name:"dense histogram = Hashtbl reference, bit for bit (before and after merge)"
    seed_gen (fun seed ->
      let rng = Rng.create (0x415 + seed) in
      let relative_error = Rng.pick rng [| 0.005; 0.005; 0.01; 0.05; 0.2 |] in
      let into = Obs.Metrics.create () and other = Obs.Metrics.create () in
      let h_into = Obs.Metrics.histogram into ~relative_error "h"
      and h_other = Obs.Metrics.histogram other ~relative_error "h" in
      let r_into = Reference.Histogram.create ~relative_error ()
      and r_other = Reference.Histogram.create ~relative_error () in
      for _ = 1 to Rng.int rng 400 do
        let v = observation rng in
        if Rng.bool rng then begin
          Obs.Metrics.Histogram.observe h_into v;
          Reference.Histogram.observe r_into v
        end
        else begin
          Obs.Metrics.Histogram.observe h_other v;
          Reference.Histogram.observe r_other v
        end
      done;
      let check stage h r =
        let module H = Obs.Metrics.Histogram in
        let module R = Reference.Histogram in
        let qs = quantile_grid @ List.init 8 (fun _ -> Rng.float rng) in
        let fail what a b =
          QCheck.Test.fail_reportf "seed %d (ε %g, %d obs) %s: %s %h, reference %h" seed
            relative_error (R.count r) stage what a b
        in
        if H.count h <> R.count r then
          fail "count" (float_of_int (H.count h)) (float_of_int (R.count r));
        List.iter
          (fun (what, a, b) -> if not (same_float a b) then fail what a b)
          [
            ("sum", H.sum h, R.sum r);
            ("mean", H.mean h, R.mean r);
            ("min", H.minimum h, R.minimum r);
            ("max", H.maximum h, R.maximum r);
          ];
        List.iter
          (fun q ->
            let a = H.quantile h q and b = R.quantile r q in
            if not (same_float a b) then fail (Printf.sprintf "quantile %g" q) a b)
          qs
      in
      check "before merge" h_into r_into;
      check "before merge (other)" h_other r_other;
      Obs.Metrics.merge ~into other;
      Reference.Histogram.merge ~into:r_into r_other;
      check "after merge" (Obs.Metrics.histogram into "h") r_into;
      true)

let tests = [ prop_reorder; prop_tcp; prop_histogram ]
