(* Reference implementations, kept for the property suite: Section
   3's routing kernels, the physical interference predicate, and the
   per-frame state of the destination, the TCP sender and the delay
   histogram.

   They are the versions the library ran before it moved to flat
   arrays. Dijkstra walks [Multigraph.out_links] and memoizes w_ns per
   search, Yen bans spur links and nodes in hash tables, update()
   scales every link of ∪_{l ∈ P} I_l through a [touched] array, and
   the interference predicate measures four endpoint distances per
   link pair. They read a view only through [Multigraph.capacity] and
   [Multigraph.link], so the library's per-view arrays are not trusted
   here. The reorder buffer keeps its packets in an [Int_map], the TCP
   sender its send times in a [Hashtbl], and the histogram its bucket
   counts in a [Hashtbl]. The library must agree with all of them bit
   for bit. *)

let d g l =
  let c = Multigraph.capacity g l in
  if c <= 0.0 then infinity else 1.0 /. c

let usable g l = Multigraph.capacity g l > 0.0

(* ---------- Dijkstra with the channel-switching cost ---------- *)

let wns g u =
  List.fold_left
    (fun acc l -> if usable g l then min acc (d g l) else acc)
    infinity (Multigraph.out_links g u)

let csc_cost g ~enabled ~in_tech ~out_tech u =
  if not enabled then 0.0
  else
    match in_tech with
    | None -> 0.0
    | Some k -> if k = out_tech then wns g u else 0.0

let state_id ~k node in_tech = (node * (k + 1)) + in_tech + 1

let no_ban _ = false

let shortest_path ?(csc = true) ?(banned_links = no_ban) ?(banned_nodes = no_ban)
    ?init_tech g ~src ~dst =
  if src = dst then invalid_arg "Reference.shortest_path: src = dst";
  let k = Multigraph.n_techs g in
  let n_states = Multigraph.n_nodes g * (k + 1) in
  let dist = Array.make n_states infinity in
  let via = Array.make n_states (-1) in
  let prev = Array.make n_states (-1) in
  let wns_memo = Array.make (Multigraph.n_nodes g) nan in
  let wns_at u =
    let w = wns_memo.(u) in
    if Float.is_nan w then begin
      let w = wns g u in
      wns_memo.(u) <- w;
      w
    end
    else w
  in
  let queue = Pqueue.create () in
  let init_in = match init_tech with None -> -1 | Some t -> t in
  let s0 = state_id ~k src init_in in
  dist.(s0) <- 0.0;
  Pqueue.push queue 0.0 s0;
  let best_dst = ref (-1) in
  while !best_dst < 0 && not (Pqueue.is_empty queue) do
    let cost = Pqueue.top_prio queue and su = Pqueue.top queue in
    Pqueue.drop queue;
    let u = su / (k + 1) and in_tech = (su mod (k + 1)) - 1 in
    if cost > dist.(su) then ()
    else if u = dst then best_dst := su
    else
      List.iter
        (fun l ->
          let lk = Multigraph.link g l in
          if
            usable g l
            && (not (banned_links l))
            && not (banned_nodes lk.Multigraph.dst)
          then begin
            let sw =
              if csc && in_tech = lk.Multigraph.tech then wns_at u else 0.0
            in
            let step = d g l +. sw in
            if Float.is_finite step then begin
              let nd = cost +. step in
              let sv = state_id ~k lk.Multigraph.dst lk.Multigraph.tech in
              if nd < dist.(sv) then begin
                dist.(sv) <- nd;
                via.(sv) <- l;
                prev.(sv) <- su;
                Pqueue.push queue nd sv
              end
            end
          end)
        (Multigraph.out_links g u)
  done;
  if !best_dst < 0 then None
  else begin
    let rec back s acc =
      let l = via.(s) in
      if l < 0 then acc else back prev.(s) (l :: acc)
    in
    Some (Paths.of_links g (back !best_dst []), dist.(!best_dst))
  end

let path_cost ?(csc = true) g path =
  let rec go in_tech links acc =
    match links with
    | [] -> acc
    | l :: rest ->
      if not (usable g l) then infinity
      else begin
        let lk = Multigraph.link g l in
        let sw =
          csc_cost g ~enabled:csc ~in_tech ~out_tech:lk.Multigraph.tech
            lk.Multigraph.src
        in
        go (Some lk.Multigraph.tech) rest (acc +. d g l +. sw)
      end
  in
  go None path.Paths.links 0.0

(* ---------- Yen's n shortest paths ---------- *)

module Path_set = Set.Make (struct
  type t = int list

  let compare = Stdlib.compare
end)

let k_shortest ?(csc = true) g ~src ~dst ~k =
  match shortest_path ~csc g ~src ~dst with
  | None -> []
  | Some first ->
    let accepted = ref [ first ] in
    let seen = ref (Path_set.singleton (fst first).Paths.links) in
    let candidates = Pqueue.create () in
    let add_candidate (p, c) =
      if (not (Path_set.mem p.Paths.links !seen)) && Paths.is_loopless g p then begin
        seen := Path_set.add p.Paths.links !seen;
        Pqueue.push candidates c p
      end
    in
    let expand (prev_path, _) =
      let links = Array.of_list prev_path.Paths.links in
      let nodes = Array.of_list (Paths.nodes g prev_path) in
      for i = 0 to Array.length links - 1 do
        let spur_node = nodes.(i) in
        let root_links = Array.to_list (Array.sub links 0 i) in
        let banned_links_tbl = Hashtbl.create 8 in
        let consider p =
          let pl = p.Paths.links in
          let rec prefix_match a b =
            match (a, b) with
            | [], _ -> true
            | x :: xs, y :: ys when x = y -> prefix_match xs ys
            | _ -> false
          in
          if prefix_match root_links pl then
            match List.nth_opt pl i with
            | Some l -> Hashtbl.replace banned_links_tbl l ()
            | None -> ()
        in
        List.iter (fun (p, _) -> consider p) !accepted;
        let banned_nodes_tbl = Hashtbl.create 8 in
        for j = 0 to i - 1 do
          Hashtbl.replace banned_nodes_tbl nodes.(j) ()
        done;
        let init_tech =
          if i = 0 then None
          else Some (Multigraph.link g links.(i - 1)).Multigraph.tech
        in
        match
          shortest_path ~csc ~banned_links:(Hashtbl.mem banned_links_tbl)
            ~banned_nodes:(Hashtbl.mem banned_nodes_tbl) ?init_tech g
            ~src:spur_node ~dst
        with
        | None -> ()
        | Some (spur_path, _) ->
          let p = Paths.of_links g (root_links @ spur_path.Paths.links) in
          let cost = path_cost ~csc g p in
          if Float.is_finite cost then add_candidate (p, cost)
      done
    in
    let rec loop () =
      if List.length !accepted >= k then ()
      else begin
        expand (List.hd !accepted);
        match Pqueue.pop candidates with
        | None -> ()
        | Some (cost, p) ->
          accepted := (p, cost) :: !accepted;
          loop ()
      end
    in
    loop ();
    List.sort (fun (_, a) (_, b) -> compare a b) (List.rev !accepted)

(* ---------- update() ---------- *)

let domain_path_weight g dom path l =
  List.fold_left
    (fun acc l' -> if Domain.interferes dom l l' then acc +. d g l' else acc)
    0.0 path.Paths.links

let rate_on_link g dom path l =
  let w = domain_path_weight g dom path l in
  if Float.is_finite w && w > 0.0 then 1.0 /. w else 0.0

let path_rate g dom path =
  List.fold_left
    (fun acc l -> Float.min acc (rate_on_link g dom path l))
    infinity path.Paths.links

let idle_fraction_at g dom path ~rate l =
  if rate <= 0.0 then 1.0
  else begin
    let consumed = rate *. domain_path_weight g dom path l in
    Float.max 0.0 (Float.min 1.0 (1.0 -. consumed))
  end

let update g dom path =
  let caps = Multigraph.capacities g in
  let rate = path_rate g dom path in
  let touched = Array.make (Array.length caps) false in
  List.iter
    (fun l ->
      Array.iter
        (fun l' ->
          if not touched.(l') then begin
            touched.(l') <- true;
            caps.(l') <- caps.(l') *. idle_fraction_at g dom path ~rate l'
          end)
        (Domain.domain dom l))
    path.Paths.links;
  Multigraph.with_capacities g caps

(* ---------- the multipath exploration tree ---------- *)

(* [Multipath.find] with the reference kernels above. *)
let find ?(n = 5) ?(max_depth = 6) ?(min_rate = 0.1) ?(max_vertices = 2_000) g dom
    ~src ~dst =
  let vertices = ref 0 in
  let best =
    ref
      {
        Multipath.paths = [];
        total_rate = 0.0;
        tree_depth = 0;
        tree_vertices = 0;
      }
  in
  let rec explore g depth acc_paths acc_total =
    incr vertices;
    let candidates =
      if depth >= max_depth || !vertices >= max_vertices then []
      else
        k_shortest g ~src ~dst ~k:n
        |> List.filter_map (fun (p, _) ->
               let r = path_rate g dom p in
               if r >= min_rate then Some (p, r) else None)
    in
    match candidates with
    | [] ->
      if acc_total > !best.Multipath.total_rate then
        best :=
          {
            Multipath.paths = List.rev acc_paths;
            total_rate = acc_total;
            tree_depth = depth;
            tree_vertices = 0;
          }
    | _ ->
      List.iter
        (fun (p, r) ->
          explore (update g dom p) (depth + 1) ((p, r) :: acc_paths) (acc_total +. r))
        candidates
  in
  explore g 0 [] 0.0;
  { !best with Multipath.tree_vertices = !vertices }

(* ---------- Domain.standard's predicate ---------- *)

(* One link pair at a time: PLC links interfere under one panel, WiFi
   links when they share an endpoint or the nearest of their four
   endpoint pairs lies within carrier-sense range. *)
let standard_interferes ?(cs_factor = 1.5) g ~techs ~positions ~panels l l' =
  let a = Multigraph.link g l and b = Multigraph.link g l' in
  let open Multigraph in
  if a.tech <> b.tech then false
  else begin
    let tech = techs.(a.tech) in
    if Technology.is_plc tech then panels.(a.src) = panels.(b.src)
    else begin
      let dist u v = Geometry.distance positions.(u) positions.(v) in
      let cs_range = cs_factor *. tech.Technology.conn_radius_m in
      a.src = b.src || a.src = b.dst || a.dst = b.src || a.dst = b.dst
      || Float.min
           (Float.min (dist a.src b.src) (dist a.src b.dst))
           (Float.min (dist a.dst b.src) (dist a.dst b.dst))
         <= cs_range
    end
  end

(* ---------- the destination's reorder buffer, on an [Int_map] ---------- *)

module Reorder = struct
  module Int_map = Map.Make (Int)

  type 'a t = {
    mutable buffer : 'a Int_map.t;
    mutable next_seq : int;
    highest : int array;  (* highest seq received per route; -1 initially *)
    declare_losses : bool;
  }

  let create ?(declare_losses = true) ~n_routes () =
    if n_routes < 1 then invalid_arg "Reorder.create: n_routes < 1";
    {
      buffer = Int_map.empty;
      next_seq = 0;
      highest = Array.make n_routes (-1);
      declare_losses;
    }

  let pending t = Int_map.cardinal t.buffer

  let next_expected t = t.next_seq

  (* Every route has moved past [s]: nothing older can still arrive. *)
  let rec past_all h i s =
    i >= Array.length h || (h.(i) > s && past_all h (i + 1) s)

  (* Release everything in order from the buffer, declaring losses for
     gaps that can no longer be filled. *)
  let drain_cb t ~deliver ~lost =
    let progress = ref true in
    while !progress do
      progress := false;
      match Int_map.find_opt t.next_seq t.buffer with
      | Some payload ->
        deliver t.next_seq payload;
        t.buffer <- Int_map.remove t.next_seq t.buffer;
        t.next_seq <- t.next_seq + 1;
        progress := true
      | None ->
        if t.declare_losses && past_all t.highest 0 t.next_seq then begin
          lost t.next_seq;
          t.next_seq <- t.next_seq + 1;
          progress := true
        end
    done

  (* The steady-state case — the arriving seq is the expected one and
     the buffer is empty — never touches the map. *)
  let push_cb t ~route ~seq payload ~deliver ~lost =
    if route < 0 || route >= Array.length t.highest then
      invalid_arg "Reorder.push: bad route";
    if seq < 0 then invalid_arg "Reorder.push: negative seq";
    if seq > t.highest.(route) then t.highest.(route) <- seq;
    if seq = t.next_seq && Int_map.is_empty t.buffer then begin
      deliver seq payload;
      t.next_seq <- seq + 1
      (* The drain below covers gaps the new highest may have just made
         undeliverable. *)
    end
    else if not (seq < t.next_seq || Int_map.mem seq t.buffer) then
      t.buffer <- Int_map.add seq payload t.buffer;
    drain_cb t ~deliver ~lost

  let push t ~route ~seq payload =
    let events = ref [] in
    push_cb t ~route ~seq payload
      ~deliver:(fun s p -> events := Reorder.Deliver (s, p) :: !events)
      ~lost:(fun s -> events := Reorder.Lost s :: !events);
    List.rev !events
end

(* ---------- the TCP sender, send times in a [Hashtbl] ---------- *)

module Tcp = struct
  type t = {
    p : Tcp.params;
    total_segments : int option;
    mutable cwnd : float;
    mutable ssthresh : float;
    mutable next_new : int;
    mutable una : int;
    mutable dup_acks : int;
    mutable in_recovery : bool;
    mutable recover : int;
    mutable srtt_v : float;
    mutable rttvar : float;
    mutable rto : float;
    mutable timer : float option;
    mutable retransmit_queue : int list;
    send_times : (int, float * bool) Hashtbl.t;  (* seq -> sent_at, retransmitted *)
    mutable retx_count : int;
    mutable max_sent : int;  (* one past the highest segment ever sent *)
    (* DCTCP state (untouched under Reno): the running EWMA of the
       marked fraction, the ack-accounting of the current observation
       window, and the window boundary (one past the highest segment
       outstanding when the window opened — once [una] passes it, a
       full window of acks has been observed). *)
    mutable dctcp_alpha : float;
    mutable win_acked : int;   (* segments cumulatively acked this window *)
    mutable win_marked : int;  (* of those, acked by a CE-echoing ack *)
    mutable win_end : int;
  }

  let create ?(params = Tcp.default_params) ~total_bytes () =
    let total_segments =
      Option.map
        (fun b -> (b + params.Tcp.segment_bytes - 1) / params.Tcp.segment_bytes)
        total_bytes
    in
    {
      p = params;
      total_segments;
      cwnd = params.Tcp.init_cwnd;
      ssthresh = params.Tcp.init_ssthresh;
      next_new = 0;
      una = 0;
      dup_acks = 0;
      in_recovery = false;
      recover = -1;
      srtt_v = 0.0;
      rttvar = 0.0;
      rto = 1.0;
      timer = None;
      retransmit_queue = [];
      send_times = Hashtbl.create 64;
      retx_count = 0;
      max_sent = 0;
      dctcp_alpha = 0.0;
      win_acked = 0;
      win_marked = 0;
      win_end = 0;
    }

  let params t = t.p
  let segments_total t = t.total_segments
  let cwnd t = t.cwnd
  let dctcp_alpha t = t.dctcp_alpha
  let ssthresh t = t.ssthresh
  let srtt t = t.srtt_v
  let snd_una t = t.una
  let in_flight t = t.next_new - t.una
  let retransmissions t = t.retx_count
  let rto_deadline t = t.timer

  let finished t =
    match t.total_segments with None -> false | Some n -> t.una >= n

  let arm_timer_if_needed t ~now =
    if t.timer = None && in_flight t > 0 then t.timer <- Some (now +. t.rto)

  let take_segment ?new_data_limit t ~now =
    let rec pop_retx () =
      match t.retransmit_queue with
      | [] -> None
      | seq :: tl ->
        t.retransmit_queue <- tl;
        if seq < t.una then pop_retx () (* already acked meanwhile *)
        else begin
          Hashtbl.replace t.send_times seq (now, true);
          t.retx_count <- t.retx_count + 1;
          t.timer <- Some (now +. t.rto);
          Some seq
        end
    in
    match pop_retx () with
    | Some seq -> Some seq
    | None ->
      let data_remains =
        (match t.total_segments with None -> true | Some n -> t.next_new < n)
        && match new_data_limit with None -> true | Some lim -> t.next_new < lim
      in
      if data_remains && float_of_int (in_flight t) < Float.min t.cwnd t.p.Tcp.max_cwnd
      then begin
        let seq = t.next_new in
        t.next_new <- t.next_new + 1;
        (* After a go-back-N reset, re-sent segments are retransmissions
           (Karn: their RTT samples would be ambiguous). *)
        let is_retx = seq < t.max_sent in
        if is_retx then t.retx_count <- t.retx_count + 1 else t.max_sent <- seq + 1;
        Hashtbl.replace t.send_times seq (now, is_retx);
        arm_timer_if_needed t ~now;
        Some seq
      end
      else None

  let rtt_sample t rtt =
    if t.srtt_v = 0.0 then begin
      t.srtt_v <- rtt;
      t.rttvar <- rtt /. 2.0
    end
    else begin
      t.rttvar <- (0.75 *. t.rttvar) +. (0.25 *. Float.abs (t.srtt_v -. rtt));
      t.srtt_v <- (0.875 *. t.srtt_v) +. (0.125 *. rtt)
    end;
    t.rto <- Float.max t.p.Tcp.min_rto (t.srtt_v +. (4.0 *. t.rttvar))

  (* DCTCP (Alizadeh et al., SIGCOMM'10), scaled to this simulator: the
     receiver echoes the CE bit of the frame that triggered each
     cumulative ack ([ece]); the sender counts, per observation window
     of one cwnd of data, the fraction [F] of acked segments whose ack
     carried ECE, folds it into [alpha <- (1 - g) alpha + g F] at the
     window boundary, and — when the window saw any mark — cuts
     [cwnd <- cwnd (1 - alpha/2)] once per window. With no marks the
     update leaves alpha at 0 and the trajectory is exactly Reno's. *)
  let dctcp_on_ack t ~newly_acked ~ece =
    match t.p.Tcp.variant with
    | Tcp.Reno -> ()
    | Tcp.Dctcp { g } ->
      t.win_acked <- t.win_acked + newly_acked;
      if ece then t.win_marked <- t.win_marked + newly_acked;
      if t.una > t.win_end then begin
        let frac =
          if t.win_acked > 0 then
            float_of_int t.win_marked /. float_of_int t.win_acked
          else 0.0
        in
        t.dctcp_alpha <- ((1.0 -. g) *. t.dctcp_alpha) +. (g *. frac);
        if t.win_marked > 0 then begin
          t.cwnd <- Float.max 1.0 (t.cwnd *. (1.0 -. (t.dctcp_alpha /. 2.0)));
          t.ssthresh <- Float.max 2.0 t.cwnd
        end;
        t.win_acked <- 0;
        t.win_marked <- 0;
        t.win_end <- t.next_new
      end

  let on_ack ?(ece = false) t ~now ~cum_ack =
    if cum_ack > t.una then begin
      (* New data acknowledged. Karn's rule: only sample RTT on
         never-retransmitted segments. *)
      (match Hashtbl.find_opt t.send_times (cum_ack - 1) with
      | Some (sent_at, false) -> rtt_sample t (now -. sent_at)
      | Some (_, true) | None -> ());
      for seq = t.una to cum_ack - 1 do
        Hashtbl.remove t.send_times seq
      done;
      let newly_acked = cum_ack - t.una in
      t.una <- cum_ack;
      t.dup_acks <- 0;
      if t.in_recovery then begin
        if t.una > t.recover then begin
          (* Full recovery. *)
          t.in_recovery <- false;
          t.cwnd <- t.ssthresh
        end
        else
          (* Partial ACK: the next hole was also lost (NewReno). *)
          t.retransmit_queue <- t.retransmit_queue @ [ t.una ]
      end
      else if t.cwnd < t.ssthresh then
        t.cwnd <- Float.min t.p.Tcp.max_cwnd (t.cwnd +. float_of_int newly_acked)
      else t.cwnd <- Float.min t.p.Tcp.max_cwnd (t.cwnd +. (float_of_int newly_acked /. t.cwnd));
      dctcp_on_ack t ~newly_acked ~ece;
      t.timer <- (if in_flight t > 0 then Some (now +. t.rto) else None)
    end
    else if cum_ack = t.una && in_flight t > 0 then begin
      t.dup_acks <- t.dup_acks + 1;
      if t.in_recovery then
        (* Window inflation during recovery. *)
        t.cwnd <- Float.min t.p.Tcp.max_cwnd (t.cwnd +. 1.0)
      else if t.dup_acks = 3 then begin
        (* Fast retransmit / fast recovery. *)
        t.ssthresh <- Float.max 2.0 (float_of_int (in_flight t) /. 2.0);
        t.cwnd <- t.ssthresh +. 3.0;
        t.in_recovery <- true;
        t.recover <- t.next_new - 1;
        t.retransmit_queue <- t.retransmit_queue @ [ t.una ]
      end
    end

  let on_rto t ~now =
    t.ssthresh <- Float.max 2.0 (t.cwnd /. 2.0);
    t.cwnd <- 1.0;
    t.dup_acks <- 0;
    t.in_recovery <- false;
    (* Go-back-N: without SACK, everything past the timeout point is
       presumed lost and will be re-sent as the window reopens. *)
    for seq = t.una to t.next_new - 1 do
      Hashtbl.remove t.send_times seq
    done;
    t.next_new <- t.una;
    t.retransmit_queue <- [];
    (* The go-back-N reset invalidates the DCTCP observation window:
       [win_end] may now lie beyond [next_new], so restart the window at
       the reset point (alpha itself persists — it is long-run state). *)
    t.win_acked <- 0;
    t.win_marked <- 0;
    t.win_end <- t.una;
    t.rto <- Float.min 5.0 (t.rto *. 2.0);
    t.timer <- Some (now +. t.rto)
end

(* ---------- the streaming histogram, buckets in a [Hashtbl] ---------- *)

module Histogram = struct
  (* sum/min/max live in a float array: as mutable boxed fields of
     this mixed record, every [observe] would allocate a fresh box
     for the sum — and [observe] runs once per delivered frame. *)
  let s_sum = 0
  let s_min = 1
  let s_max = 2

  type t = {
    gamma : float;
    log_gamma : float;
    buckets : (int, int ref) Hashtbl.t;
    mutable zero : int;  (* observations <= zero_floor *)
    mutable count : int;
    scalars : float array;  (* s_sum, s_min, s_max — unboxed *)
  }

  let zero_floor = 1e-12

  let create ?(relative_error = 0.005) () =
    if relative_error <= 0.0 || relative_error >= 1.0 then
      invalid_arg "Histogram.create: relative_error must be in (0,1)";
    let gamma = (1.0 +. relative_error) /. (1.0 -. relative_error) in
    {
      gamma;
      log_gamma = log gamma;
      buckets = Hashtbl.create 64;
      zero = 0;
      count = 0;
      scalars = [| 0.0; infinity; neg_infinity |];
    }

  let observe t v =
    t.count <- t.count + 1;
    let sc = t.scalars in
    sc.(s_sum) <- sc.(s_sum) +. v;
    if v < sc.(s_min) then sc.(s_min) <- v;
    if v > sc.(s_max) then sc.(s_max) <- v;
    if v <= zero_floor then t.zero <- t.zero + 1
    else begin
      let key = int_of_float (Float.ceil (log v /. t.log_gamma)) in
      (* find + Not_found rather than find_opt: the hit path (all
         but the first observation per bucket) allocates no option. *)
      match Hashtbl.find t.buckets key with
      | r -> incr r
      | exception Not_found -> Hashtbl.add t.buckets key (ref 1)
    end

  let count t = t.count
  let sum t = t.scalars.(s_sum)
  let mean t = if t.count = 0 then 0.0 else sum t /. float_of_int t.count
  let minimum t = if t.count = 0 then 0.0 else t.scalars.(s_min)
  let maximum t = if t.count = 0 then 0.0 else t.scalars.(s_max)

  let quantile t q =
    if t.count = 0 then 0.0
    else if q <= 0.0 then t.scalars.(s_min)
    else if q >= 1.0 then t.scalars.(s_max)
    else begin
      let rank =
        let r = int_of_float (Float.ceil (q *. float_of_int t.count)) in
        if r < 1 then 1 else if r > t.count then t.count else r
      in
      if rank <= t.zero then Float.max 0.0 t.scalars.(s_min)
      else begin
        let keys =
          Hashtbl.fold (fun k _ acc -> k :: acc) t.buckets []
          |> List.sort compare
        in
        let rec walk acc = function
          | [] -> t.scalars.(s_max)
          | k :: rest ->
            let c = !(Hashtbl.find t.buckets k) in
            let acc = acc + c in
            if acc >= rank then begin
              (* Bucket k covers (gamma^(k-1), gamma^k]; the midpoint
                 bounds the relative error by the configured ε. *)
              let v =
                2.0 *. (t.gamma ** float_of_int k) /. (t.gamma +. 1.0)
              in
              Float.max t.scalars.(s_min) (Float.min t.scalars.(s_max) v)
            end
            else walk acc rest
        in
        walk t.zero keys
      end
    end

  (* Metrics.merge's histogram arm: bucket by bucket. *)
  let merge ~into h =
    Hashtbl.iter
      (fun key c ->
        match Hashtbl.find_opt into.buckets key with
        | Some r -> r := !r + !c
        | None -> Hashtbl.add into.buckets key (ref !c))
      h.buckets;
    into.zero <- into.zero + h.zero;
    into.count <- into.count + h.count;
    let ds = into.scalars and hs = h.scalars in
    ds.(s_sum) <- ds.(s_sum) +. hs.(s_sum);
    if hs.(s_min) < ds.(s_min) then ds.(s_min) <- hs.(s_min);
    if hs.(s_max) > ds.(s_max) then ds.(s_max) <- hs.(s_max)
end
