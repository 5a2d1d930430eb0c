type model = Exact | Conservative

type t = {
  g : Multigraph.t;
  flows : (int * int) array;
  usable : int array;          (* usable link ids, dense order *)
  pos_of_link : int array;     (* link id -> position in usable, or -1 *)
  n_vars : int;
  rows : (float array * Simplex.op * float) list;
}

let var t ~flow ~pos = (flow * Array.length t.usable) + pos

let build ?(delta = 0.0) model g dom ~flows =
  List.iter
    (fun (s, d) -> if s = d then invalid_arg "Rate_region.build: src = dst")
    flows;
  let flows = Array.of_list flows in
  let n_links = Multigraph.num_links g in
  let usable =
    Array.of_list
      (List.filter (Multigraph.usable g) (List.init n_links Fun.id))
  in
  let pos_of_link = Array.make n_links (-1) in
  Array.iteri (fun pos l -> pos_of_link.(l) <- pos) usable;
  let nu = Array.length usable in
  let n_flows = Array.length flows in
  let n_vars = n_flows * nu in
  let t0 = { g; flows; usable; pos_of_link; n_vars; rows = [] } in
  let rows = ref [] in
  (* Conservation: for each flow, at every node that is not an
     endpoint, inflow = outflow. *)
  Array.iteri
    (fun f (s, d) ->
      for v = 0 to Multigraph.n_nodes g - 1 do
        if v <> s && v <> d then begin
          let row = Array.make n_vars 0.0 in
          List.iter
            (fun l ->
              let pos = pos_of_link.(l) in
              if pos >= 0 then row.(var t0 ~flow:f ~pos) <- 1.0)
            (Multigraph.in_links g v);
          List.iter
            (fun l ->
              let pos = pos_of_link.(l) in
              if pos >= 0 then
                row.(var t0 ~flow:f ~pos) <- row.(var t0 ~flow:f ~pos) -. 1.0)
            (Multigraph.out_links g v);
          rows := (row, Simplex.Eq, 0.0) :: !rows
        end
      done)
    flows;
  (* Airtime rows. *)
  let budget = 1.0 -. delta in
  let add_airtime_row link_set =
    let row = Array.make n_vars 0.0 in
    let nonzero = ref false in
    Array.iter
      (fun l ->
        let pos = pos_of_link.(l) in
        if pos >= 0 then begin
          nonzero := true;
          let dl = Multigraph.d g l in
          for f = 0 to n_flows - 1 do
            row.(var t0 ~flow:f ~pos) <- dl
          done
        end)
      link_set;
    if !nonzero then rows := (row, Simplex.Le, budget) :: !rows
  in
  (match model with
  | Exact ->
    List.iter (fun c -> add_airtime_row (Array.of_list c)) (Domain.graph_cliques dom)
  | Conservative ->
    Array.iter (fun l -> add_airtime_row (Domain.domain dom l)) usable);
  { t0 with rows = List.rev !rows }

let n_vars t = t.n_vars

let rows t = t.rows

let flow_value_coeffs t f =
  let s, _ = t.flows.(f) in
  let c = Array.make t.n_vars 0.0 in
  List.iter
    (fun l ->
      let pos = t.pos_of_link.(l) in
      if pos >= 0 then c.(var t ~flow:f ~pos) <- 1.0)
    (Multigraph.out_links t.g s);
  List.iter
    (fun l ->
      let pos = t.pos_of_link.(l) in
      if pos >= 0 then c.(var t ~flow:f ~pos) <- c.(var t ~flow:f ~pos) -. 1.0)
    (Multigraph.in_links t.g s);
  c
