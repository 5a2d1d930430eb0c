let domain_path_weight g dom path l =
  (* Σ_{l' ∈ I_l ∩ P} d_l' : the airtime-per-bit that path traffic
     costs link l's collision domain. *)
  List.fold_left
    (fun acc l' ->
      if Domain.interferes dom l l' then acc +. Multigraph.d g l' else acc)
    0.0 path.Paths.links

let rate_on_link g dom path l =
  let w = domain_path_weight g dom path l in
  if Float.is_finite w && w > 0.0 then 1.0 /. w else 0.0

let path_rate g dom path =
  List.fold_left
    (fun acc l -> Float.min acc (rate_on_link g dom path l))
    infinity path.Paths.links

(* r(l,P) given R(P) = [rate]. *)
let idle_fraction_at g dom path ~rate l =
  if rate <= 0.0 then 1.0
  else begin
    let consumed = rate *. domain_path_weight g dom path l in
    Float.max 0.0 (Float.min 1.0 (1.0 -. consumed))
  end

let idle_fraction g dom path l =
  idle_fraction_at g dom path ~rate:(path_rate g dom path) l

let update g dom path =
  let caps = Multigraph.capacities g in
  let rate = path_rate g dom path in
  (* Each link of ∪_{l ∈ P} I_l is scaled once, from the original
     capacities, so the visiting order does not matter. *)
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
