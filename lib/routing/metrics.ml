type t =
  | Empower_csc
  | Optimal_csc
  | Ett
  | Iru
  | Catt

let all = [ Empower_csc; Optimal_csc; Ett; Iru; Catt ]

let name = function
  | Empower_csc -> "EMPoWER"
  | Optimal_csc -> "optimal-CSC"
  | Ett -> "ETT"
  | Iru -> "IRU"
  | Catt -> "CATT"

let link_weight t g dom l =
  let d = Multigraph.d g l in
  if not (Float.is_finite d) then infinity
  else begin
    match t with
    | Empower_csc | Optimal_csc | Ett -> d
    | Iru -> d *. float_of_int (Array.length (Domain.domain dom l))
    | Catt ->
      Array.fold_left
        (fun acc l' ->
          if Multigraph.usable g l' then acc +. Multigraph.d g l' else acc)
        0.0 (Domain.domain dom l)
  end

let optimal_csc_cost g path =
  let rec go prev_link links acc =
    match links with
    | [] -> acc
    | l :: rest ->
      if not (Multigraph.usable g l) then infinity
      else begin
        let d = Multigraph.d g l in
        let switch_reward =
          match prev_link with
          | Some p
            when (Multigraph.link g p).Multigraph.tech
                 <> (Multigraph.link g l).Multigraph.tech ->
            (* The optimal per-path CSC rewards alternation at the
               switching node by min of the two hop weights. *)
            -.Float.min (Multigraph.d g p) d
          | Some _ | None -> 0.0
        in
        go (Some l) rest (acc +. d +. switch_reward)
      end
  in
  go None path.Paths.links 0.0

let route t g dom ~src ~dst =
  match t with
  | Empower_csc -> Dijkstra.shortest_path ~csc:true g ~src ~dst
  | Optimal_csc -> (
    (* Negative, per-path switching weights break Dijkstra's
       assumptions (no isotonicity), so gather a candidate set with
       Yen under the standard CSC and rerank exactly. *)
    match Yen.k_shortest ~csc:true g ~src ~dst ~k:8 with
    | [] -> None
    | candidates ->
      let best =
        List.fold_left
          (fun acc (p, _) ->
            let c = optimal_csc_cost g p in
            match acc with
            | Some (_, cbest) when cbest <= c -> acc
            | _ -> Some (p, c))
          None candidates
      in
      best)
  | Ett | Iru | Catt -> (
    (* Reuse the CSC-free Dijkstra by encoding the metric as a
       capacity view: Dijkstra weighs links by 1/capacity, so a view
       with capacity 1/w makes it minimize the metric. *)
    let caps =
      Array.init (Multigraph.num_links g) (fun l ->
          let w = link_weight t g dom l in
          if Float.is_finite w && w > 0.0 then 1.0 /. w else 0.0)
    in
    let reweighted = Multigraph.with_capacities g caps in
    match Dijkstra.shortest_path ~csc:false reweighted ~src ~dst with
    | None -> None
    | Some (p, cost) -> Some (Paths.of_links g p.Paths.links, cost))
