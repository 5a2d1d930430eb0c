type t = {
  rates : float array;
  flow_rates : float array;
  slots : int;
  trace : float array array;
}

let tol = 0.01

let convergence_slot t =
  let n_slots = Array.length t.trace in
  if n_slots = 0 then None
  else begin
    let final = t.flow_rates in
    let n_flows = Array.length final in
    let within slot =
      let ok = ref true in
      for f = 0 to n_flows - 1 do
        let err = Float.abs (t.trace.(slot).(f) -. final.(f)) in
        let bound = Float.max (tol *. Float.abs final.(f)) 0.01 in
        if err > bound then ok := false
      done;
      !ok
    in
    (* Scan backward for the last slot that violates the band. *)
    let rec last_violation slot =
      if slot < 0 then None else if not (within slot) then Some slot else last_violation (slot - 1)
    in
    match last_violation (n_slots - 1) with
    | None -> Some 0
    | Some v -> if v + 1 >= n_slots then None else Some (v + 1)
  end

let final_utility u t =
  Array.fold_left (fun acc x -> acc +. u.Utility.u x) 0.0 t.flow_rates
