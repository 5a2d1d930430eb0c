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

(* r(l,P) given R(P) = [rate] and w = Σ_{l' ∈ I_l ∩ P} d_l'. *)
let idle_fraction_of ~rate w =
  if rate <= 0.0 then 1.0 else Float.max 0.0 (Float.min 1.0 (1.0 -. (rate *. w)))

let idle_fraction g dom path l =
  idle_fraction_of ~rate:(path_rate g dom path) (domain_path_weight g dom path l)

let update g dom path =
  let rate = path_rate g dom path in
  (* r(l,P) depends on l only through I_l: one factor per twin class,
     from a representative's weight. d_l > 0 on every link, so a class
     weighs 0 exactly when I_l ∩ P is empty, i.e. when its links lie
     outside ∪_{l ∈ P} I_l; they keep factor 1, and c *. 1 = c. *)
  let n = Domain.n_twins dom in
  let factors = Array.make n 1.0 in
  let rep = Array.make n (-1) in
  for l = Multigraph.num_links g - 1 downto 0 do
    rep.(Domain.twin dom l) <- l
  done;
  for k = 0 to n - 1 do
    let w = domain_path_weight g dom path rep.(k) in
    if w > 0.0 then factors.(k) <- idle_fraction_of ~rate w
  done;
  Multigraph.scale_capacities g ~group:(Domain.twin dom) factors
