type variant = Reno | Dctcp of { g : float }

type params = {
  segment_bytes : int;
  init_cwnd : float;
  init_ssthresh : float;
  min_rto : float;
  max_cwnd : float;
  variant : variant;
}

let default_params =
  {
    segment_bytes = 12000;
    init_cwnd = 2.0;
    init_ssthresh = 64.0;
    min_rto = 0.2;
    max_cwnd = 1000.0;
    variant = Reno;
  }

let dctcp_params = { default_params with variant = Dctcp { g = 1.0 /. 16.0 } }

(* The sender's floats, in a record of floats only: OCaml stores such
   a record flat, so assigning a field is a plain store, where a
   mutable float field of a mixed record allocates a box on every
   write. *)
type floats = {
  mutable cwnd : float;
  mutable ssthresh : float;
  mutable srtt_v : float;
  mutable rttvar : float;
  mutable rto : float;
  (* DCTCP's running EWMA of the marked fraction (see [dctcp_on_ack]) *)
  mutable dctcp_alpha : float;
}

type t = {
  p : params;
  clock : float array;  (* clock.(0): the caller's current time *)
  timer : float array;  (* timer.(0): absolute RTO deadline; nan when none *)
  total_segments : int option;
  fl : floats;
  mutable next_new : int;
  mutable una : int;
  mutable dup_acks : int;
  mutable in_recovery : bool;
  mutable recover : int;
  mutable retransmit_queue : int list;
  (* Send time and Karn flag of each segment in [una, next_new), the
     only ones [on_ack] reads: a power-of-two ring indexed by
     [seq land (cap - 1)], in two unboxed columns, doubled when the
     window outgrows it. A slot keeps its values after the window
     passes it, until a later segment overwrites them. *)
  mutable sent_at : float array;
  mutable retx : bool array;  (* sent more than once *)
  mutable retx_count : int;
  mutable max_sent : int;  (* one past the highest segment ever sent *)
  (* DCTCP's ack-accounting (untouched under Reno): the current
     observation window's counts, and the window boundary (one past
     the highest segment outstanding when the window opened — once
     [una] passes it, a full window of acks has been observed). *)
  mutable win_acked : int;   (* segments cumulatively acked this window *)
  mutable win_marked : int;  (* of those, acked by a CE-echoing ack *)
  mutable win_end : int;
}

let create ?(params = default_params) ~clock ~total_bytes () =
  let total_segments =
    Option.map
      (fun b -> (b + params.segment_bytes - 1) / params.segment_bytes)
      total_bytes
  in
  {
    p = params;
    clock;
    timer = [| Float.nan |];
    total_segments;
    fl =
      {
        cwnd = params.init_cwnd;
        ssthresh = params.init_ssthresh;
        srtt_v = 0.0;
        rttvar = 0.0;
        rto = 1.0;
        dctcp_alpha = 0.0;
      };
    next_new = 0;
    una = 0;
    dup_acks = 0;
    in_recovery = false;
    recover = -1;
    retransmit_queue = [];
    sent_at = Array.make 64 0.0;
    retx = Array.make 64 false;
    retx_count = 0;
    max_sent = 0;
    win_acked = 0;
    win_marked = 0;
    win_end = 0;
  }

let segments_total t = t.total_segments
let cwnd t = t.fl.cwnd
let dctcp_alpha t = t.fl.dctcp_alpha
let ssthresh t = t.fl.ssthresh
let srtt t = t.fl.srtt_v
let snd_una t = t.una
let in_flight t = t.next_new - t.una
let retransmissions t = t.retx_count
let rto_deadline_cell t = t.timer

let finished t =
  match t.total_segments with None -> false | Some n -> t.una >= n

(* Double the ring until [seq] falls in [una, una + cap), re-placing
   the window [una, next_new). *)
let grow t ~seq =
  let cap = Array.length t.sent_at in
  let cap' = ref (2 * cap) in
  while seq - t.una >= !cap' do
    cap' := 2 * !cap'
  done;
  let sent_at = Array.make !cap' 0.0 and retx = Array.make !cap' false in
  for s = t.una to t.next_new - 1 do
    sent_at.(s land (!cap' - 1)) <- t.sent_at.(s land (cap - 1));
    retx.(s land (!cap' - 1)) <- t.retx.(s land (cap - 1))
  done;
  t.sent_at <- sent_at;
  t.retx <- retx

(* Every time below is read from the clock cell where it is used: a
   float passed between functions is boxed unless the call is inlined. *)

(* A segment below [una] (re-sent after an ack jumped past
   [next_new]) is never read back, so it is not recorded. *)
let record_send t seq ~retx =
  if seq >= t.una then begin
    if seq - t.una >= Array.length t.sent_at then grow t ~seq;
    let i = seq land (Array.length t.sent_at - 1) in
    t.sent_at.(i) <- t.clock.(0);
    t.retx.(i) <- retx
  end

let arm_timer_if_needed t =
  if Float.is_nan t.timer.(0) && in_flight t > 0 then
    t.timer.(0) <- t.clock.(0) +. t.fl.rto

(* The first queued retransmission not acked meanwhile, recorded as
   sent now; -1 when there is none. *)
let rec pop_retx t =
  match t.retransmit_queue with
  | [] -> -1
  | seq :: tl ->
    t.retransmit_queue <- tl;
    if seq < t.una then pop_retx t (* already acked meanwhile *)
    else begin
      record_send t seq ~retx:true;
      t.retx_count <- t.retx_count + 1;
      t.timer.(0) <- t.clock.(0) +. t.fl.rto;
      seq
    end

let take_segment ?new_data_limit t =
  let seq = pop_retx t in
  if seq >= 0 then seq
  else begin
    let data_remains =
      (match t.total_segments with None -> true | Some n -> t.next_new < n)
      && match new_data_limit with None -> true | Some lim -> t.next_new < lim
    in
    if data_remains && float_of_int (in_flight t) < Float.min t.fl.cwnd t.p.max_cwnd
    then begin
      let seq = t.next_new in
      t.next_new <- t.next_new + 1;
      (* After a go-back-N reset, re-sent segments are retransmissions
         (Karn: their RTT samples would be ambiguous). *)
      let is_retx = seq < t.max_sent in
      if is_retx then t.retx_count <- t.retx_count + 1 else t.max_sent <- seq + 1;
      record_send t seq ~retx:is_retx;
      arm_timer_if_needed t;
      seq
    end
    else -1
  end

(* Inlined into [on_ack]: an out-of-line call would box [rtt]. *)
let[@inline] rtt_sample t rtt =
  let fl = t.fl in
  if fl.srtt_v = 0.0 then begin
    fl.srtt_v <- rtt;
    fl.rttvar <- rtt /. 2.0
  end
  else begin
    fl.rttvar <- (0.75 *. fl.rttvar) +. (0.25 *. Float.abs (fl.srtt_v -. rtt));
    fl.srtt_v <- (0.875 *. fl.srtt_v) +. (0.125 *. rtt)
  end;
  fl.rto <- Float.max t.p.min_rto (fl.srtt_v +. (4.0 *. fl.rttvar))

(* DCTCP (Alizadeh et al., SIGCOMM'10), scaled to this simulator: the
   receiver echoes the CE bit of the frame that triggered each
   cumulative ack ([ece]); the sender counts, per observation window
   of one cwnd of data, the fraction [F] of acked segments whose ack
   carried ECE, folds it into [alpha <- (1 - g) alpha + g F] at the
   window boundary, and — when the window saw any mark — cuts
   [cwnd <- cwnd (1 - alpha/2)] once per window. With no marks the
   update leaves alpha at 0 and the trajectory is exactly Reno's. *)
let dctcp_on_ack t ~newly_acked ~ece =
  match t.p.variant with
  | Reno -> ()
  | Dctcp { g } ->
    t.win_acked <- t.win_acked + newly_acked;
    if ece then t.win_marked <- t.win_marked + newly_acked;
    if t.una > t.win_end then begin
      let fl = t.fl in
      let frac =
        if t.win_acked > 0 then
          float_of_int t.win_marked /. float_of_int t.win_acked
        else 0.0
      in
      fl.dctcp_alpha <- ((1.0 -. g) *. fl.dctcp_alpha) +. (g *. frac);
      if t.win_marked > 0 then begin
        fl.cwnd <- Float.max 1.0 (fl.cwnd *. (1.0 -. (fl.dctcp_alpha /. 2.0)));
        fl.ssthresh <- Float.max 2.0 fl.cwnd
      end;
      t.win_acked <- 0;
      t.win_marked <- 0;
      t.win_end <- t.next_new
    end

let on_ack ~ece t ~cum_ack =
  let fl = t.fl in
  let now = t.clock.(0) in
  if cum_ack > t.una then begin
    (* New data acknowledged. Karn's rule: only sample RTT on
       never-retransmitted segments. *)
    let last = cum_ack - 1 in
    if last < t.next_new then begin
      let i = last land (Array.length t.sent_at - 1) in
      if not t.retx.(i) then rtt_sample t (now -. t.sent_at.(i))
    end;
    let newly_acked = cum_ack - t.una in
    t.una <- cum_ack;
    t.dup_acks <- 0;
    if t.in_recovery then begin
      if t.una > t.recover then begin
        (* Full recovery. *)
        t.in_recovery <- false;
        fl.cwnd <- fl.ssthresh
      end
      else
        (* Partial ACK: the next hole was also lost (NewReno). *)
        t.retransmit_queue <- t.retransmit_queue @ [ t.una ]
    end
    else if fl.cwnd < fl.ssthresh then
      fl.cwnd <- Float.min t.p.max_cwnd (fl.cwnd +. float_of_int newly_acked)
    else
      fl.cwnd <- Float.min t.p.max_cwnd (fl.cwnd +. (float_of_int newly_acked /. fl.cwnd));
    dctcp_on_ack t ~newly_acked ~ece;
    t.timer.(0) <- (if in_flight t > 0 then now +. fl.rto else Float.nan)
  end
  else if cum_ack = t.una && in_flight t > 0 then begin
    t.dup_acks <- t.dup_acks + 1;
    if t.in_recovery then
      (* Window inflation during recovery. *)
      fl.cwnd <- Float.min t.p.max_cwnd (fl.cwnd +. 1.0)
    else if t.dup_acks = 3 then begin
      (* Fast retransmit / fast recovery. *)
      fl.ssthresh <- Float.max 2.0 (float_of_int (in_flight t) /. 2.0);
      fl.cwnd <- fl.ssthresh +. 3.0;
      t.in_recovery <- true;
      t.recover <- t.next_new - 1;
      t.retransmit_queue <- t.retransmit_queue @ [ t.una ]
    end
  end

let on_rto t =
  let fl = t.fl in
  fl.ssthresh <- Float.max 2.0 (fl.cwnd /. 2.0);
  fl.cwnd <- 1.0;
  t.dup_acks <- 0;
  t.in_recovery <- false;
  (* Go-back-N: without SACK, everything past the timeout point is
     presumed lost and will be re-sent as the window reopens. *)
  t.next_new <- t.una;
  t.retransmit_queue <- [];
  (* The go-back-N reset invalidates the DCTCP observation window:
     [win_end] may now lie beyond [next_new], so restart the window at
     the reset point (alpha itself persists — it is long-run state). *)
  t.win_acked <- 0;
  t.win_marked <- 0;
  t.win_end <- t.una;
  fl.rto <- Float.min 5.0 (fl.rto *. 2.0);
  t.timer.(0) <- t.clock.(0) +. fl.rto
