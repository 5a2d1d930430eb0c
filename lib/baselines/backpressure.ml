type result = {
  flow_rates : float array;
  trace : float array array;
  slots : int;
  convergence_slot : int option;
}

(* Utility weight V (larger is closer to optimal but slower), the
   admission cap in Mbps, the smoothing window in slots, and the
   utility the admission inverts. *)
let v = 300.0
let a_max = 200.0
let window = 200
let utility = Utility.proportional_fair

let run ?(slots = 20000) g dom ~flows =
  let flows = Array.of_list flows in
  let n_flows = Array.length flows in
  let n_nodes = Multigraph.n_nodes g in
  let n_links = Multigraph.num_links g in
  (* q.(node).(flow): backlog in Mbit. One slot serves c_l Mbit on an
     activated link (i.e. a slot is "one second" of the fluid rate). *)
  let q = Array.make_matrix n_nodes n_flows 0.0 in
  let delivered_window = Array.init n_flows (fun _ -> Queue.create ()) in
  let window_sum = Array.make n_flows 0.0 in
  let trace = Array.make slots [||] in
  for t = 0 to slots - 1 do
    (* Admission via drift-plus-penalty. *)
    Array.iteri
      (fun f (s, _) ->
        let qs = q.(s).(f) in
        let a =
          if qs <= 0.0 then a_max
          else Float.min a_max (utility.Utility.u'_inv (qs /. v))
        in
        q.(s).(f) <- q.(s).(f) +. a)
      flows;
    (* Max-weight greedy independent set. *)
    let weights =
      Array.init n_links (fun l ->
          if not (Multigraph.usable g l) then (l, -1, 0.0)
          else begin
            let lk = Multigraph.link g l in
            let u = lk.Multigraph.src and w = lk.Multigraph.dst in
            let best_f = ref (-1) and best_diff = ref 0.0 in
            for f = 0 to n_flows - 1 do
              let _, dst_f = flows.(f) in
              let qv = if w = dst_f then 0.0 else q.(w).(f) in
              let diff = q.(u).(f) -. qv in
              if diff > !best_diff then begin
                best_diff := diff;
                best_f := f
              end
            done;
            (l, !best_f, Multigraph.capacity g l *. !best_diff)
          end)
    in
    let order = Array.copy weights in
    Array.sort (fun (_, _, a) (_, _, b) -> compare b a) order;
    let active = ref [] in
    Array.iter
      (fun (l, f, w) ->
        if f >= 0 && w > 0.0 then begin
          let clashes =
            List.exists (fun (l', _) -> Domain.interferes dom l l') !active
          in
          if not clashes then active := (l, f) :: !active
        end)
      order;
    (* Serve the activated links. *)
    let delivered = Array.make n_flows 0.0 in
    List.iter
      (fun (l, f) ->
        let lk = Multigraph.link g l in
        let u = lk.Multigraph.src and w = lk.Multigraph.dst in
        let amount = Float.min q.(u).(f) (Multigraph.capacity g l) in
        q.(u).(f) <- q.(u).(f) -. amount;
        let _, dst_f = flows.(f) in
        if w = dst_f then delivered.(f) <- delivered.(f) +. amount
        else q.(w).(f) <- q.(w).(f) +. amount)
      !active;
    (* Sliding-window smoothing. *)
    for f = 0 to n_flows - 1 do
      Queue.push delivered.(f) delivered_window.(f);
      window_sum.(f) <- window_sum.(f) +. delivered.(f);
      if Queue.length delivered_window.(f) > window then
        window_sum.(f) <- window_sum.(f) -. Queue.pop delivered_window.(f)
    done;
    trace.(t) <-
      Array.init n_flows (fun f ->
          window_sum.(f) /. float_of_int (Queue.length delivered_window.(f)))
  done;
  let flow_rates = if slots = 0 then Array.make n_flows 0.0 else trace.(slots - 1) in
  let convergence_slot =
    let within slot =
      let ok = ref true in
      for f = 0 to n_flows - 1 do
        let err = Float.abs (trace.(slot).(f) -. flow_rates.(f)) in
        if err > Float.max (0.01 *. Float.abs flow_rates.(f)) 0.01 then ok := false
      done;
      !ok
    in
    let rec last_violation slot =
      if slot < 0 then None
      else if not (within slot) then Some slot
      else last_violation (slot - 1)
    in
    match last_violation (slots - 1) with
    | None -> Some 0
    | Some s -> if s + 1 >= slots then None else Some (s + 1)
  in
  { flow_rates; trace; slots; convergence_slot }
