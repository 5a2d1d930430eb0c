type link = {
  id : int;
  src : int;
  dst : int;
  tech : int;
  peer : int;
  edge : int;
}

type flat = {
  out_start : int array;
  out : int array;
  dst_of : int array;
  tech_of : int array;
  d : float array;
  min_egress_d : float array;
}

(* Every view of one topology shares [links], the adjacency lists and
   the structural arrays of [flat]; a view owns [caps] and the
   [flat.d] and [flat.min_egress_d] derived from them. *)
type t = {
  n_nodes : int;
  n_techs : int;
  links : link array;
  caps : float array;
  out_of : int list array;
  in_of : int list array;
  flat : flat;
}

let n_nodes t = t.n_nodes
let n_techs t = t.n_techs
let num_links t = Array.length t.links

(* The view of [t]'s structure with capacity vector [caps], which it
   takes over: d_l once per link, then each node's smallest d_l. The
   loops keep the floats unboxed. *)
let view t caps =
  let d = Array.create_float (Array.length caps) in
  for l = 0 to Array.length caps - 1 do
    let c = caps.(l) in
    d.(l) <- (if c <= 0.0 then infinity else 1.0 /. c)
  done;
  let { out_start; out; _ } = t.flat in
  let min_egress_d = Array.make t.n_nodes infinity in
  for u = 0 to t.n_nodes - 1 do
    for i = out_start.(u) to out_start.(u + 1) - 1 do
      let dl = d.(out.(i)) in
      if dl < min_egress_d.(u) then min_egress_d.(u) <- dl
    done
  done;
  { t with caps; flat = { t.flat with d; min_egress_d } }

let create ~n_nodes ~n_techs ~edges =
  if n_nodes <= 0 then invalid_arg "Multigraph.create: n_nodes <= 0";
  if n_techs <= 0 then invalid_arg "Multigraph.create: n_techs <= 0";
  let n_edges = List.length edges in
  let links = Array.make (2 * n_edges) { id = 0; src = 0; dst = 0; tech = 0; peer = 0; edge = 0 } in
  let caps = Array.make (2 * n_edges) 0.0 in
  let out_of = Array.make n_nodes [] in
  let in_of = Array.make n_nodes [] in
  List.iteri
    (fun e (u, v, tech, cap) ->
      if u < 0 || u >= n_nodes || v < 0 || v >= n_nodes then
        invalid_arg "Multigraph.create: node id out of range";
      if u = v then invalid_arg "Multigraph.create: self-loop";
      if tech < 0 || tech >= n_techs then
        invalid_arg "Multigraph.create: technology index out of range";
      if not (Float.is_finite cap) || cap < 0.0 then
        invalid_arg "Multigraph.create: capacity must be finite and >= 0";
      let fwd = 2 * e and bwd = (2 * e) + 1 in
      links.(fwd) <- { id = fwd; src = u; dst = v; tech; peer = bwd; edge = e };
      links.(bwd) <- { id = bwd; src = v; dst = u; tech; peer = fwd; edge = e };
      caps.(fwd) <- cap;
      caps.(bwd) <- cap;
      out_of.(u) <- fwd :: out_of.(u);
      out_of.(v) <- bwd :: out_of.(v);
      in_of.(v) <- fwd :: in_of.(v);
      in_of.(u) <- bwd :: in_of.(u))
    edges;
  (* Keep adjacency lists in increasing link-id order for determinism. *)
  Array.iteri (fun i l -> out_of.(i) <- List.rev l) out_of;
  Array.iteri (fun i l -> in_of.(i) <- List.rev l) in_of;
  let out_start = Array.make (n_nodes + 1) 0 in
  Array.iteri (fun u l -> out_start.(u + 1) <- out_start.(u) + List.length l) out_of;
  let out = Array.make (2 * n_edges) 0 in
  Array.iteri (fun u l -> List.iteri (fun i id -> out.(out_start.(u) + i) <- id) l) out_of;
  let flat =
    {
      out_start;
      out;
      dst_of = Array.map (fun lk -> lk.dst) links;
      tech_of = Array.map (fun lk -> lk.tech) links;
      d = [||];
      min_egress_d = [||];
    }
  in
  view { n_nodes; n_techs; links; caps; out_of; in_of; flat } caps

let check_id t l =
  if l < 0 || l >= Array.length t.links then
    invalid_arg "Multigraph: link id out of range"

let link t l =
  check_id t l;
  t.links.(l)

let links t = t.links

let capacity t l =
  check_id t l;
  t.caps.(l)

let capacities t = Array.copy t.caps

let d t l =
  check_id t l;
  t.flat.d.(l)

let usable t l = capacity t l > 0.0

let flat t = t.flat

let out_links t u = t.out_of.(u)
let in_links t u = t.in_of.(u)

let with_capacities t caps =
  if Array.length caps <> Array.length t.caps then
    invalid_arg "Multigraph.with_capacities: length mismatch";
  Array.iter
    (fun c ->
      if not (Float.is_finite c) || c < 0.0 then
        invalid_arg "Multigraph.with_capacities: capacity must be finite and >= 0")
    caps;
  view t (Array.copy caps)

let scale_capacities t ~group factors =
  Array.iter
    (fun f ->
      if not (f >= 0.0 && f <= 1.0) then
        invalid_arg "Multigraph.scale_capacities: factor outside [0, 1]")
    factors;
  let caps = Array.create_float (Array.length t.caps) in
  for l = 0 to Array.length caps - 1 do
    caps.(l) <- t.caps.(l) *. factors.(group l)
  done;
  view t caps

let find_links t ~src ~dst =
  List.filter (fun l -> t.links.(l).dst = dst) t.out_of.(src)
