type combination = {
  paths : (Paths.t * float) list;
  total_rate : float;
  tree_depth : int;
  tree_vertices : int;
}

let routes c = List.map fst c.paths

let min_rate = 0.1
let max_vertices = 2_000

let find ?(n = 5) ?(csc = true) ?(max_depth = 6) g dom ~src ~dst =
  if n < 1 then invalid_arg "Multipath.find: n < 1";
  if src = dst then invalid_arg "Multipath.find: src = dst";
  let vertices = ref 0 in
  let best = ref { paths = []; total_rate = 0.0; tree_depth = 0; tree_vertices = 0 } in
  let consider_leaf acc_paths acc_total depth =
    if acc_total > !best.total_rate then
      best :=
        { paths = List.rev acc_paths; total_rate = acc_total; tree_depth = depth;
          tree_vertices = 0 }
  in
  (* Depth-first construction of the exploration tree. The paper's
     networks have medium-wide collision domains, so every update()
     zeroes a large link set and trees stay shallow (depth <= 3
     observed); on topologies with localized interference the tree
     can branch much deeper, so we bound both the branch depth (the
     mitigation the paper itself suggests) and the total number of
     explored vertices. The bound only trims combinations of 7+
     simultaneous paths, whose extra capacity is negligible. *)
  let rec explore g depth acc_paths acc_total =
    incr vertices;
    let budget_ok = !vertices < max_vertices in
    let candidates =
      if depth >= max_depth || not budget_ok then []
      else begin
        Yen.k_shortest ~csc g ~src ~dst ~k:n
        |> List.filter_map (fun (p, _) ->
               let r = Update.path_rate g dom p in
               if r >= min_rate then Some (p, r) else None)
      end
    in
    match candidates with
    | [] -> consider_leaf acc_paths acc_total depth
    | _ ->
      List.iter
        (fun (p, r) ->
          let g' = Update.update g dom p in
          explore g' (depth + 1) ((p, r) :: acc_paths) (acc_total +. r))
        candidates
  in
  explore g 0 [] 0.0;
  { !best with tree_vertices = !vertices }
