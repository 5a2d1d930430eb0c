type t = {
  mutable alpha : float;
  mutable prev : float option;        (* last rate sample *)
  mutable prev_diff : float;          (* last non-zero increment *)
  mutable last_amplitude : float;     (* amplitude of the last swing *)
  mutable oscillations : int;         (* consecutive non-decreasing swings *)
}

let base = 0.02

let initial ~single_path ~longest_route_hops =
  if longest_route_hops <= 1 then base *. 4.0
  else if single_path || longest_route_hops = 2 then base *. 2.0
  else base

let create ~single_path ~longest_route_hops =
  {
    alpha = initial ~single_path ~longest_route_hops;
    prev = None;
    prev_diff = 0.0;
    last_amplitude = 0.0;
    oscillations = 0;
  }

let current t = t.alpha

let observe t rate =
  match t.prev with
  | None -> t.prev <- Some rate
  | Some prev ->
    let diff = rate -. prev in
    t.prev <- Some rate;
    if Float.abs diff > 1e-9 then begin
      let sign_flip = t.prev_diff *. diff < 0.0 in
      if sign_flip then begin
        let amplitude = Float.abs diff in
        if amplitude >= t.last_amplitude -. 1e-12 then
          t.oscillations <- t.oscillations + 1
        else t.oscillations <- 0;
        t.last_amplitude <- amplitude;
        if t.oscillations >= 6 then begin
          t.alpha <- t.alpha /. 2.0;
          t.oscillations <- 0;
          t.last_amplitude <- 0.0
        end
      end;
      t.prev_diff <- diff
    end
