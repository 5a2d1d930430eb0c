let advertise ?(noise = 0.0) ?(seq = 1) rng g ~node =
  let entries =
    List.filter_map
      (fun l ->
        if Multigraph.usable g l then begin
          let lk = Multigraph.link g l in
          let cap = Multigraph.capacity g l in
          let est =
            if noise <= 0.0 then cap
            else
              Float.max 0.001
                (cap *. (1.0 +. Rng.gaussian rng ~mean:0.0 ~std:noise))
          in
          Some
            {
              Lsa.neighbor = lk.Multigraph.dst;
              tech = lk.Multigraph.tech;
              capacity_mbps = est;
            }
        end
        else None)
      (Multigraph.out_links g node)
  in
  (* Chunk into max_links-sized LSAs sharing the sequence number. *)
  let rec chunk acc = function
    | [] -> List.rev acc
    | rest ->
      let take = min Lsa.max_links (List.length rest) in
      let now, later =
        (List.filteri (fun i _ -> i < take) rest, List.filteri (fun i _ -> i >= take) rest)
      in
      chunk (now :: acc) later
  in
  match entries with
  | [] -> []
  | _ ->
    List.mapi
      (fun fragment links -> Lsa.make ~fragment ~origin:node ~seq links)
      (chunk [] entries)

let converged_view ?noise rng g ~viewer =
  let n = Multigraph.n_nodes g in
  let dbs = Array.init n (fun _ -> Lsdb.create ()) in
  let neighbors u =
    List.filter_map
      (fun l ->
        if Multigraph.usable g l then Some (Multigraph.link g l).Multigraph.dst
        else None)
      (Multigraph.out_links g u)
    |> List.sort_uniq compare
  in
  let rounds = ref 0 and messages = ref 0 in
  for node = 0 to n - 1 do
    List.iter
      (fun lsa ->
        let s = Lsdb.Flood.propagate ~neighbors ~dbs ~from:node lsa in
        rounds := max !rounds s.Lsdb.Flood.rounds;
        messages := !messages + s.Lsdb.Flood.messages)
      (advertise ?noise rng g ~node)
  done;
  let view =
    Lsdb.graph dbs.(viewer) ~n_nodes:n ~n_techs:(Multigraph.n_techs g)
  in
  (view, { Lsdb.Flood.rounds = !rounds; messages = !messages })
