type protocol =
  | Dcf_80211
  | Csma_1901

(* Backoff parameters. 802.11: CW doubles from 16 to 1024 (stage =
   number of consecutive collisions). 1901: four stages with fixed
   windows and per-stage deferral counters. *)
let cw_80211 stage = min 1024 (16 lsl stage)

let cw_1901 = [| 8; 16; 32; 64 |]
let dc_1901 = [| 0; 1; 3; 15 |]

type station = {
  mutable stage : int;
  mutable backoff : int;
  mutable dc : int;        (* 1901 deferral counter *)
  mutable successes : int;
  mutable last_success_slot : int;
  mutable gaps : float list;  (* inter-success gaps, for service_cv *)
}

type result = {
  throughput : float;
  collision_rate : float;
  jain : float;
  per_station : int array;
  service_cv : float;
}

let simulate ?(slots = 200_000) ?(frame_slots = 20) rng protocol ~n_stations =
  if n_stations < 1 then invalid_arg "Csma.simulate: n_stations < 1";
  let cw proto stage =
    match proto with
    | Dcf_80211 -> cw_80211 stage
    | Csma_1901 -> cw_1901.(min stage (Array.length cw_1901 - 1))
  in
  let fresh_backoff st =
    st.backoff <- Rng.int rng (cw protocol st.stage);
    match protocol with
    | Csma_1901 -> st.dc <- dc_1901.(min st.stage (Array.length dc_1901 - 1))
    | Dcf_80211 -> ()
  in
  let stations =
    Array.init n_stations (fun _ ->
        let st =
          { stage = 0; backoff = 0; dc = 0; successes = 0; last_success_slot = 0;
            gaps = [] }
        in
        st)
  in
  Array.iter fresh_backoff stations;
  let t = ref 0 in
  let busy_success = ref 0 and attempts = ref 0 and collisions = ref 0 in
  while !t < slots do
    let transmitters =
      Array.to_list stations |> List.filter (fun st -> st.backoff = 0)
    in
    match transmitters with
    | [] ->
      (* Idle slot: everyone counts down. *)
      Array.iter (fun st -> st.backoff <- st.backoff - 1) stations;
      Array.iter (fun st -> if st.backoff < 0 then st.backoff <- 0) stations;
      incr t
    | [ winner ] ->
      incr attempts;
      busy_success := !busy_success + frame_slots;
      winner.successes <- winner.successes + 1;
      if winner.successes > 1 then
        winner.gaps <- float_of_int (!t - winner.last_success_slot) :: winner.gaps;
      winner.last_success_slot <- !t;
      winner.stage <- 0;
      fresh_backoff winner;
      (* Everyone else senses a busy medium. *)
      Array.iter
        (fun st ->
          if st != winner then begin
            match protocol with
            | Dcf_80211 -> () (* freeze; resume after the frame *)
            | Csma_1901 ->
              (* Deferral: too many busy slots sensed in this stage
                 pushes the station deeper without transmitting. *)
              st.dc <- st.dc - 1;
              if st.dc < 0 then begin
                st.stage <- min (st.stage + 1) (Array.length cw_1901 - 1);
                fresh_backoff st
              end
          end)
        stations;
      t := !t + frame_slots
    | colliders ->
      attempts := !attempts + List.length colliders;
      collisions := !collisions + List.length colliders;
      List.iter
        (fun st ->
          st.stage <-
            (match protocol with
            | Dcf_80211 -> st.stage + 1
            | Csma_1901 -> min (st.stage + 1) (Array.length cw_1901 - 1));
          fresh_backoff st)
        colliders;
      Array.iter
        (fun st ->
          if st.backoff > 0 then begin
            match protocol with
            | Dcf_80211 -> ()
            | Csma_1901 ->
              st.dc <- st.dc - 1;
              if st.dc < 0 then begin
                st.stage <- min (st.stage + 1) (Array.length cw_1901 - 1);
                fresh_backoff st
              end
          end)
        stations;
      t := !t + frame_slots
  done;
  let per_station = Array.map (fun st -> st.successes) stations in
  let total = Array.fold_left ( + ) 0 per_station in
  let jain =
    if total = 0 then 1.0
    else begin
      let xs = Array.map float_of_int per_station in
      let s = Array.fold_left ( +. ) 0.0 xs in
      let s2 = Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 xs in
      s *. s /. (float_of_int n_stations *. s2)
    end
  in
  let service_cv =
    let cvs =
      Array.to_list stations
      |> List.filter_map (fun st ->
             match st.gaps with
             | [] | [ _ ] -> None
             | gaps ->
               let m = Stats.mean gaps in
               if m <= 0.0 then None else Some (Stats.stddev gaps /. m))
    in
    Stats.mean cvs
  in
  {
    throughput = float_of_int !busy_success /. float_of_int !t;
    collision_rate =
      (if !attempts = 0 then 0.0
       else float_of_int !collisions /. float_of_int !attempts);
    jain;
    per_station;
    service_cv;
  }
