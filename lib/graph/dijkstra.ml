type constraints = {
  banned_links : int -> bool;
  banned_nodes : int -> bool;
}

let no_constraints = { banned_links = (fun _ -> false); banned_nodes = (fun _ -> false) }

let wns g u =
  List.fold_left
    (fun acc l -> if Multigraph.usable g l then min acc (Multigraph.d g l) else acc)
    infinity (Multigraph.out_links g u)

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
  let dist = Array.make n_states infinity in
  let via = Array.make n_states (-1) in
  let prev = Array.make n_states (-1) in
  (* via.(s) is the link taken to reach state s and prev.(s) the state
     it was reached from; -1 at the source. *)
  (* w_ns(u) depends on the graph only: compute it at most once per
     node and search (nan = not computed yet; wns is never nan). *)
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
      List.iter
        (fun l ->
          let lk = Multigraph.link g l in
          if
            Multigraph.usable g l
            && (not (constraints.banned_links l))
            && not (constraints.banned_nodes lk.Multigraph.dst)
          then begin
            (* The CSC of [csc_cost]: w_ns(u) when the path keeps its
               technology through u, else 0. *)
            let sw =
              if csc && in_tech = lk.Multigraph.tech then wns_at u else 0.0
            in
            let step = Multigraph.d g l +. sw in
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
