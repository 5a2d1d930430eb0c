type violation = {
  time : float;
  rule : string;
  link : int option;
  node : int option;
  flow : int option;
  detail : string;
}

exception Violation of violation

let describe v =
  let opt name = function None -> "" | Some i -> Printf.sprintf " %s=%d" name i in
  Printf.sprintf "t=%.6f [%s]%s%s%s: %s" v.time v.rule (opt "link" v.link)
    (opt "node" v.node) (opt "flow" v.flow) v.detail

let () =
  Printexc.register_printer (function
    | Violation v -> Some ("Invariants.Violation " ^ describe v)
    | _ -> None)

type pacing = Paced | Token_bucket | Unpoliced

type view = {
  n_links : int;
  queue_len : int -> int;
  on_air_flow : int -> int option;
  iter_queued : int -> (int -> unit) -> unit;
  domain : int -> int array;
  gamma : int -> float;
  link_src : int -> int;
  live_frames : unit -> int;
  held_frames : unit -> int;
}

type flow_acct = {
  pacing : pacing;
  mutable cur_rate : float;          (* current Σ_r x_r, Mbit/s *)
  mutable max_rate_window : float;   (* max of cur_rate this window *)
  mutable injected : int;            (* cumulative frames *)
  mutable delivered : int;
  mutable dropped : int;
  mutable injected_window : int;
  mutable probes_window : int;
  mutable delivered_window : int;
  mutable inflight_at_window_start : int;
  mutable next_release : int;        (* next seq the reorder may release *)
}

type t = {
  mode : [ `Raise | `Collect ];
  mutable flows : flow_acct array;
  mutable queue_limit : int;
  mutable frame_bytes : int;
  mutable control_period : float;
  mutable checks : int;
  mutable viols_rev : violation list;
  (* scratch buffer for the per-flow attribution walk *)
  mutable scratch : int array;
}

let create ?(mode = `Raise) () =
  {
    mode;
    flows = [||];
    queue_limit = max_int;
    frame_bytes = 1;
    control_period = 0.1;
    checks = 0;
    viols_rev = [];
    scratch = [||];
  }

let env_enabled () = Sys.getenv_opt "EMPOWER_CHECK" <> None

let configure t ~queue_limit ~frame_bytes ~control_period =
  t.queue_limit <- queue_limit;
  t.frame_bytes <- frame_bytes;
  t.control_period <- control_period

let register_flow t ~flow ~pacing ~rate =
  if flow <> Array.length t.flows then
    invalid_arg "Invariants.register_flow: flows must be registered in order";
  let acct =
    {
      pacing;
      cur_rate = rate;
      max_rate_window = rate;
      injected = 0;
      delivered = 0;
      dropped = 0;
      injected_window = 0;
      probes_window = 0;
      delivered_window = 0;
      inflight_at_window_start = 0;
      next_release = 0;
    }
  in
  t.flows <- Array.append t.flows [| acct |];
  t.scratch <- Array.make (Array.length t.flows) 0

let report t ~time ~rule ?link ?node ?flow detail =
  let v = { time; rule; link; node; flow; detail } in
  match t.mode with
  | `Raise -> raise (Violation v)
  | `Collect -> t.viols_rev <- v :: t.viols_rev

let inflight a = a.injected - a.delivered - a.dropped

(* ---------- accounting hooks ---------- *)

let on_inject t ~now:_ ~flow =
  let a = t.flows.(flow) in
  a.injected <- a.injected + 1;
  a.injected_window <- a.injected_window + 1

(* Reclaim probes are scheduled by the recovery backoff, not by the
   pacing loop, so they count toward frame conservation but are exempt
   from the paced-injection window. *)
let on_probe t ~now:_ ~flow =
  let a = t.flows.(flow) in
  a.injected <- a.injected + 1;
  a.probes_window <- a.probes_window + 1

let on_deliver t ~now ~flow =
  let a = t.flows.(flow) in
  a.delivered <- a.delivered + 1;
  a.delivered_window <- a.delivered_window + 1;
  if a.delivered + a.dropped > a.injected then
    report t ~time:now ~rule:"flow-conservation" ~flow
      (Printf.sprintf "delivered %d + dropped %d exceeds injected %d"
         a.delivered a.dropped a.injected)

let on_drop t ~now ~flow ~link ~reason =
  let a = t.flows.(flow) in
  a.dropped <- a.dropped + 1;
  if a.delivered + a.dropped > a.injected then
    report t ~time:now ~rule:"flow-conservation" ?link ~flow
      (Printf.sprintf "drop (%s): delivered %d + dropped %d exceeds injected %d"
         (match reason with
         | `Drop r -> Obs.Trace.drop_reason_name r
         | `Collision -> "collision")
         a.delivered a.dropped a.injected)

let on_release t ~now ~flow ev =
  let a = t.flows.(flow) in
  let seq, kind =
    match ev with `Deliver s -> (s, "deliver") | `Lost s -> (s, "lost")
  in
  if seq < a.next_release then
    report t ~time:now ~rule:"reorder-duplicate" ~flow
      (Printf.sprintf "%s of seq %d after releases up to %d" kind seq
         (a.next_release - 1))
  else if seq > a.next_release then
    report t ~time:now ~rule:"reorder-gap" ~flow
      (Printf.sprintf "%s of seq %d while %d was never released" kind seq
         a.next_release)
  else a.next_release <- a.next_release + 1

let on_rate t ~flow ~rate =
  let a = t.flows.(flow) in
  a.cur_rate <- rate;
  if rate > a.max_rate_window then a.max_rate_window <- rate

(* ---------- per-event checks ---------- *)

let check_step t ~now view =
  t.checks <- t.checks + 1;
  (* Ledger total of frames that should still be inside the network. *)
  let ledger = ref 0 in
  Array.iteri
    (fun fid a ->
      let fl = inflight a in
      if fl < 0 then
        report t ~time:now ~rule:"flow-conservation" ~flow:fid
          (Printf.sprintf "negative in-flight: injected %d delivered %d dropped %d"
             a.injected a.delivered a.dropped);
      ledger := !ledger + fl)
    t.flows;
  let actual = ref 0 in
  for l = 0 to view.n_links - 1 do
    let qlen = view.queue_len l in
    if qlen > t.queue_limit then
      report t ~time:now ~rule:"queue-bound" ~link:l ~node:(view.link_src l)
        (Printf.sprintf "queue holds %d frames, limit %d" qlen t.queue_limit);
    actual := !actual + qlen;
    match view.on_air_flow l with
    | None -> ()
    | Some _ ->
      incr actual;
      (* Carrier sensing: nothing else of I_l may be transmitting. *)
      Array.iter
        (fun l' ->
          if l' <> l && view.on_air_flow l' <> None then
            report t ~time:now ~rule:"medium-occupancy" ~link:l
              ~node:(view.link_src l)
              (Printf.sprintf "links %d and %d on the air in one domain" l l'))
        (view.domain l)
  done;
  if !actual <> !ledger then
    report t ~time:now ~rule:"frame-conservation"
      (Printf.sprintf
         "MAC holds %d frames but ledger says %d (injected %d delivered %d dropped %d)"
         !actual !ledger
         (Array.fold_left (fun acc a -> acc + a.injected) 0 t.flows)
         (Array.fold_left (fun acc a -> acc + a.delivered) 0 t.flows)
         (Array.fold_left (fun acc a -> acc + a.dropped) 0 t.flows));
  (* The frame pool: every record out of it is a frame the engine
     still holds, so a frame freed twice or never freed shows here. *)
  let live = view.live_frames () and held = view.held_frames () in
  if live <> !actual + held then
    report t ~time:now ~rule:"frame-pool"
      (Printf.sprintf
         "pool has %d frames out but the MAC holds %d and the equalizer %d" live
         !actual held);
  for l = 0 to view.n_links - 1 do
    let g = view.gamma l in
    if g < 0.0 || not (Float.is_finite g) then
      report t ~time:now ~rule:"negative-price" ~link:l ~node:(view.link_src l)
        (Printf.sprintf "gamma = %g" g)
  done

(* ---------- per-window checks ---------- *)

let bucket_depth ~frame_bytes cell =
  cell.(0) <- Float.max (8.0 *. float_of_int frame_bytes) (cell.(0) *. 0.25)

let on_tick t ~now view =
  (* Attribute every queued / on-air frame to its flow and reconcile
     with the ledger: this is the check a skipped or misattributed
     drop counter cannot survive. *)
  let counts = t.scratch in
  Array.fill counts 0 (Array.length counts) 0;
  for l = 0 to view.n_links - 1 do
    view.iter_queued l (fun f -> counts.(f) <- counts.(f) + 1);
    match view.on_air_flow l with
    | Some f -> counts.(f) <- counts.(f) + 1
    | None -> ()
  done;
  Array.iteri
    (fun fid a ->
      let ledger = inflight a in
      if counts.(fid) <> ledger then
        report t ~time:now ~rule:"frame-conservation" ~flow:fid
          (Printf.sprintf
             "MAC holds %d frames of this flow but ledger says %d (injected %d delivered %d dropped %d)"
             counts.(fid) ledger a.injected a.delivered a.dropped);
      (* Paced injection: the source may not beat the controller's
         allocation. Slack: two frames of pacing granularity, plus the
         depth of the engine's token bucket for policed TCP. *)
      (match a.pacing with
      | Unpoliced -> ()
      | Paced | Token_bucket ->
        let rate_bytes = a.max_rate_window *. 1e6 /. 8.0 in
        let budget = rate_bytes *. t.control_period in
        let slack =
          let frames = 2.0 *. float_of_int t.frame_bytes in
          match a.pacing with
          | Token_bucket ->
            let depth = [| rate_bytes |] in
            bucket_depth ~frame_bytes:t.frame_bytes depth;
            frames +. depth.(0)
          | Paced | Unpoliced -> frames
        in
        let sent = float_of_int (a.injected_window * t.frame_bytes) in
        if sent > budget +. slack then
          report t ~time:now ~rule:"paced-injection" ~flow:fid
            (Printf.sprintf
               "injected %d frames (%.0f B) in one period against a budget of %.0f B + %.0f B slack (max rate %.3f Mbit/s)"
               a.injected_window sent budget slack a.max_rate_window));
      (* Goodput bound: a flow cannot deliver more than it injected
         this window plus the backlog it had at the window start —
         hence, transitively, never more than Σ_r x_r allows. *)
      let injectable =
        a.injected_window + a.probes_window + a.inflight_at_window_start
      in
      if a.delivered_window > injectable then
        report t ~time:now ~rule:"goodput-bound" ~flow:fid
          (Printf.sprintf
             "delivered %d frames in one period with %d injected + %d probed + \
              %d backlogged"
             a.delivered_window a.injected_window a.probes_window
             a.inflight_at_window_start);
      a.injected_window <- 0;
      a.probes_window <- 0;
      a.delivered_window <- 0;
      a.inflight_at_window_start <- inflight a;
      a.max_rate_window <- a.cur_rate)
    t.flows

(* ---------- results ---------- *)

let violations t = List.rev t.viols_rev
let events_checked t = t.checks
let frames_delivered t = Array.fold_left (fun acc a -> acc + a.delivered) 0 t.flows
