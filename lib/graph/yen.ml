module Path_set = Set.Make (struct
  type t = int list

  let compare = Stdlib.compare
end)

let k_shortest ?(csc = true) g ~src ~dst ~k =
  if k < 1 then invalid_arg "Yen.k_shortest: k < 1";
  match Dijkstra.shortest_path ~csc g ~src ~dst with
  | None -> []
  | Some first ->
    let accepted = ref [ first ] in
    let seen = ref (Path_set.singleton (fst first).Paths.links) in
    (* Candidate paths found so far but not yet accepted. *)
    let candidates = Pqueue.create () in
    let add_candidate (p, c) =
      if (not (Path_set.mem p.Paths.links !seen)) && Paths.is_loopless g p then begin
        seen := Path_set.add p.Paths.links !seen;
        Pqueue.push candidates c p
      end
    in
    (* One stamp per spur: every spur search starts from a reset. *)
    let constraints = Dijkstra.constraints g in
    let expand (prev_path, _) =
      let links = Array.of_list prev_path.Paths.links in
      let nodes = Array.of_list (Paths.nodes g prev_path) in
      for i = 0 to Array.length links - 1 do
        let spur_node = nodes.(i) in
        Dijkstra.reset constraints;
        (* Links banned at the spur: the i-th hop of every accepted
           path whose first i hops are the root path links.(0 .. i-1). *)
        let rec ban_ith j = function
          | [] -> ()
          | l :: rest ->
            if j = i then Dijkstra.ban_link constraints l
            else if l = links.(j) then ban_ith (j + 1) rest
        in
        List.iter (fun (p, _) -> ban_ith 0 p.Paths.links) !accepted;
        (* Nodes of the root path (except the spur node) are banned to
           keep candidates loopless. *)
        for j = 0 to i - 1 do
          Dijkstra.ban_node constraints nodes.(j)
        done;
        let init_tech =
          if i = 0 then None
          else Some (Multigraph.link g links.(i - 1)).Multigraph.tech
        in
        match
          Dijkstra.shortest_path ~csc ~constraints ?init_tech g ~src:spur_node ~dst
        with
        | None -> ()
        | Some (spur_path, _) ->
          let total_links = ref spur_path.Paths.links in
          for j = i - 1 downto 0 do
            total_links := links.(j) :: !total_links
          done;
          let p = Paths.of_links g !total_links in
          let cost = Dijkstra.path_cost ~csc g p in
          if Float.is_finite cost then add_candidate (p, cost)
      done
    in
    let rec loop () =
      if List.length !accepted >= k then ()
      else begin
        expand (List.hd !accepted);
        match Pqueue.pop candidates with
        | None -> ()
        | Some (cost, p) ->
          accepted := (p, cost) :: !accepted;
          loop ()
      end
    in
    loop ();
    List.sort (fun (_, a) (_, b) -> compare a b) (List.rev !accepted)
