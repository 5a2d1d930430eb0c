(* Bans live in stamp arrays: a link (node) is banned while its entry
   equals the current stamp, so {!reset} lifts every ban at once. *)
type constraints = {
  link_stamp : int array;
  node_stamp : int array;
  mutable stamp : int;
}

let constraints g =
  {
    link_stamp = Array.make (Multigraph.num_links g) 0;
    node_stamp = Array.make (Multigraph.n_nodes g) 0;
    stamp = 1;
  }

let reset c = c.stamp <- c.stamp + 1
let ban_link c l = c.link_stamp.(l) <- c.stamp
let ban_node c u = c.node_stamp.(u) <- c.stamp

(* Bans nothing: no stamp is ever 0. *)
let no_constraints = { link_stamp = [||]; node_stamp = [||]; stamp = 0 }

let wns g u = (Multigraph.flat g).Multigraph.min_egress_d.(u)

(* The switching cost charged at node [u] when a path arrives with
   technology [in_tech] and leaves with technology [out_tech]. *)
let csc_cost g ~enabled ~in_tech ~out_tech u =
  if not enabled then 0.0
  else
    match in_tech with
    | None -> 0.0
    | Some k -> if k = out_tech then wns g u else 0.0

(* States of the virtual interface graph: (node, incoming technology),
   where "no incoming technology" (the flow source) is encoded as -1. *)
let state_id ~k node in_tech = (node * (k + 1)) + in_tech + 1

let shortest_path ?(csc = true) ?(constraints = no_constraints) ?init_tech g ~src
    ~dst =
  if src = dst then invalid_arg "Dijkstra.shortest_path: src = dst";
  let k = Multigraph.n_techs g in
  let n_states = Multigraph.n_nodes g * (k + 1) in
  let { Multigraph.out_start; out; dst_of; tech_of; d; min_egress_d } =
    Multigraph.flat g
  in
  let { link_stamp; node_stamp; stamp } = constraints in
  let bans = stamp > 0 in
  let dist = Array.make n_states infinity in
  let via = Array.make n_states (-1) in
  let prev = Array.make n_states (-1) in
  (* via.(s) is the link taken to reach state s and prev.(s) the state
     it was reached from; -1 at the source. *)
  (* The queue holds state ids; ties pop in push order either way. *)
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
      (* Out-links in ascending id order, as the queue's ties expect.
         An unusable link has d_l = infinity and fails the finiteness
         test, as does a usable one whose d_l overflows. *)
      for i = out_start.(u) to out_start.(u + 1) - 1 do
        let l = out.(i) in
        let v = dst_of.(l) in
        if not (bans && (link_stamp.(l) = stamp || node_stamp.(v) = stamp)) then begin
          let t = tech_of.(l) in
          (* The CSC of [csc_cost]: w_ns(u) when the path keeps its
             technology through u, else 0. *)
          let sw = if csc && in_tech = t then min_egress_d.(u) else 0.0 in
          let step = d.(l) +. sw in
          if Float.is_finite step then begin
            let nd = cost +. step in
            let sv = state_id ~k v t in
            if nd < dist.(sv) then begin
              dist.(sv) <- nd;
              via.(sv) <- l;
              prev.(sv) <- su;
              Pqueue.push queue nd sv
            end
          end
        end
      done
  done;
  if !best_dst < 0 then None
  else begin
    (* Walk the recorded predecessor states back to the source. *)
    let rec back s acc =
      let l = via.(s) in
      if l < 0 then acc else back prev.(s) (l :: acc)
    in
    let links = back !best_dst [] in
    let path = Paths.of_links g links in
    Some (path, dist.(!best_dst))
  end

let path_cost ?(csc = true) ?init_tech g path =
  let rec go in_tech links acc =
    match links with
    | [] -> acc
    | l :: rest ->
      if not (Multigraph.usable g l) then infinity
      else begin
        let lk = Multigraph.link g l in
        let sw =
          csc_cost g ~enabled:csc ~in_tech ~out_tech:lk.Multigraph.tech
            lk.Multigraph.src
        in
        go (Some lk.Multigraph.tech) rest (acc +. Multigraph.d g l +. sw)
      end
  in
  go init_tech path.Paths.links 0.0
