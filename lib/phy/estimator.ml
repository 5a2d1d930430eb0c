type mode = Probing | Active_traffic

type t = {
  rng : Rng.t;
  mutable current_mode : mode;
  mutable est : float;
  mutable last_obs : float;
}

let relative_error = function Probing -> 0.05 | Active_traffic -> 0.01

let reaction_time = function Probing -> 3.0 | Active_traffic -> 0.1

let noisy rng mode truth =
  if truth <= 0.0 then 0.0
  else begin
    let eps = Rng.gaussian rng ~mean:0.0 ~std:(relative_error mode) in
    Float.max 0.0 (truth *. (1.0 +. eps))
  end

let create ?(mode = Probing) rng ~initial_capacity =
  { rng; current_mode = mode; est = noisy rng mode initial_capacity; last_obs = 0.0 }

let mode t = t.current_mode

let set_mode t m = t.current_mode <- m

let observe t ~now ~true_capacity =
  let dt = Float.max 0.0 (now -. t.last_obs) in
  t.last_obs <- now;
  let obs = noisy t.rng t.current_mode true_capacity in
  let tau = reaction_time t.current_mode in
  (* First-order exponential tracker toward the new observation. *)
  let w = 1.0 -. exp (-.dt /. tau) in
  if t.est <= 0.0 then t.est <- obs else t.est <- t.est +. (w *. (obs -. t.est))

let reset t ~now ~capacity =
  t.est <- noisy t.rng t.current_mode capacity;
  t.last_obs <- now

let estimate t = t.est
