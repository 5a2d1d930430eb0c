(* State of the fixed point: per (route, hop) arrival rate. The
   arrival at hop k is the offered rate damped by the service scaling
   of hops 0..k-1; per-link demand aggregates arrivals of every route
   hop crossing that link. Only links actually carrying traffic need
   their domain load evaluated, which keeps the loop fast on large
   networks. *)

let iterations = 50

let compute g dom ~offered =
  let n_links = Multigraph.num_links g in
  let routes = Array.of_list offered in
  let hops = Array.map (fun (p, _) -> Array.of_list p.Paths.links) routes in
  (* The links that can ever carry demand. *)
  let active = Hashtbl.create 32 in
  Array.iter (Array.iter (fun l -> Hashtbl.replace active l ())) hops;
  let active_links = Hashtbl.fold (fun l () acc -> l :: acc) active [] in
  (* scale.(l): fraction of link l's demand that gets served. *)
  let scale = Array.make n_links 1.0 in
  let demand = Array.make n_links 0.0 in
  for _ = 1 to iterations do
    List.iter (fun l -> demand.(l) <- 0.0) active_links;
    Array.iteri
      (fun r (_, x) ->
        let arrival = ref (Float.max 0.0 x) in
        Array.iter
          (fun l ->
            demand.(l) <- demand.(l) +. (!arrival *. Multigraph.d g l);
            arrival := !arrival *. scale.(l))
          hops.(r))
      routes;
    (* Domain load of link l: total airtime demanded inside I_l. A link
       in an overloaded neighborhood serves 1/load of its demand. *)
    List.iter
      (fun l ->
        let load =
          Array.fold_left (fun acc l' -> acc +. demand.(l')) 0.0 (Domain.domain dom l)
        in
        scale.(l) <- (if load > 1.0 then 1.0 /. load else 1.0))
      active_links
  done;
  (scale, demand, hops, routes)

let goodput g dom ~offered =
  let scale, _, hops, routes = compute g dom ~offered in
  Array.to_list
    (Array.mapi
       (fun r (_, x) ->
         Array.fold_left (fun rate l -> rate *. scale.(l)) (Float.max 0.0 x) hops.(r))
       routes)
