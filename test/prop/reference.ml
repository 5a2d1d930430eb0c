(* Reference implementations of Section 3's routing kernels and of the
   physical interference predicate, kept for the property suite.

   They are the list-based versions the library ran before it moved to
   flat arrays: Dijkstra walks [Multigraph.out_links] and memoizes
   w_ns per search, Yen bans spur links and nodes in hash tables,
   update() scales every link of ∪_{l ∈ P} I_l through a [touched]
   array, and the interference predicate measures four endpoint
   distances per link pair. They read a view only through
   [Multigraph.capacity] and [Multigraph.link], so the library's
   per-view arrays are not trusted here. The library must agree with
   them bit for bit. *)

let d g l =
  let c = Multigraph.capacity g l in
  if c <= 0.0 then infinity else 1.0 /. c

let usable g l = Multigraph.capacity g l > 0.0

(* ---------- Dijkstra with the channel-switching cost ---------- *)

let wns g u =
  List.fold_left
    (fun acc l -> if usable g l then min acc (d g l) else acc)
    infinity (Multigraph.out_links g u)

let csc_cost g ~enabled ~in_tech ~out_tech u =
  if not enabled then 0.0
  else
    match in_tech with
    | None -> 0.0
    | Some k -> if k = out_tech then wns g u else 0.0

let state_id ~k node in_tech = (node * (k + 1)) + in_tech + 1

let no_ban _ = false

let shortest_path ?(csc = true) ?(banned_links = no_ban) ?(banned_nodes = no_ban)
    ?init_tech g ~src ~dst =
  if src = dst then invalid_arg "Reference.shortest_path: src = dst";
  let k = Multigraph.n_techs g in
  let n_states = Multigraph.n_nodes g * (k + 1) in
  let dist = Array.make n_states infinity in
  let via = Array.make n_states (-1) in
  let prev = Array.make n_states (-1) in
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
            usable g l
            && (not (banned_links l))
            && not (banned_nodes lk.Multigraph.dst)
          then begin
            let sw =
              if csc && in_tech = lk.Multigraph.tech then wns_at u else 0.0
            in
            let step = d g l +. sw in
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
    let rec back s acc =
      let l = via.(s) in
      if l < 0 then acc else back prev.(s) (l :: acc)
    in
    Some (Paths.of_links g (back !best_dst []), dist.(!best_dst))
  end

let path_cost ?(csc = true) g path =
  let rec go in_tech links acc =
    match links with
    | [] -> acc
    | l :: rest ->
      if not (usable g l) then infinity
      else begin
        let lk = Multigraph.link g l in
        let sw =
          csc_cost g ~enabled:csc ~in_tech ~out_tech:lk.Multigraph.tech
            lk.Multigraph.src
        in
        go (Some lk.Multigraph.tech) rest (acc +. d g l +. sw)
      end
  in
  go None path.Paths.links 0.0

(* ---------- Yen's n shortest paths ---------- *)

module Path_set = Set.Make (struct
  type t = int list

  let compare = Stdlib.compare
end)

let k_shortest ?(csc = true) g ~src ~dst ~k =
  match shortest_path ~csc g ~src ~dst with
  | None -> []
  | Some first ->
    let accepted = ref [ first ] in
    let seen = ref (Path_set.singleton (fst first).Paths.links) in
    let candidates = Pqueue.create () in
    let add_candidate (p, c) =
      if (not (Path_set.mem p.Paths.links !seen)) && Paths.is_loopless g p then begin
        seen := Path_set.add p.Paths.links !seen;
        Pqueue.push candidates c p
      end
    in
    let expand (prev_path, _) =
      let links = Array.of_list prev_path.Paths.links in
      let nodes = Array.of_list (Paths.nodes g prev_path) in
      for i = 0 to Array.length links - 1 do
        let spur_node = nodes.(i) in
        let root_links = Array.to_list (Array.sub links 0 i) in
        let banned_links_tbl = Hashtbl.create 8 in
        let consider p =
          let pl = p.Paths.links in
          let rec prefix_match a b =
            match (a, b) with
            | [], _ -> true
            | x :: xs, y :: ys when x = y -> prefix_match xs ys
            | _ -> false
          in
          if prefix_match root_links pl then
            match List.nth_opt pl i with
            | Some l -> Hashtbl.replace banned_links_tbl l ()
            | None -> ()
        in
        List.iter (fun (p, _) -> consider p) !accepted;
        let banned_nodes_tbl = Hashtbl.create 8 in
        for j = 0 to i - 1 do
          Hashtbl.replace banned_nodes_tbl nodes.(j) ()
        done;
        let init_tech =
          if i = 0 then None
          else Some (Multigraph.link g links.(i - 1)).Multigraph.tech
        in
        match
          shortest_path ~csc ~banned_links:(Hashtbl.mem banned_links_tbl)
            ~banned_nodes:(Hashtbl.mem banned_nodes_tbl) ?init_tech g
            ~src:spur_node ~dst
        with
        | None -> ()
        | Some (spur_path, _) ->
          let p = Paths.of_links g (root_links @ spur_path.Paths.links) in
          let cost = path_cost ~csc g p in
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

(* ---------- update() ---------- *)

let domain_path_weight g dom path l =
  List.fold_left
    (fun acc l' -> if Domain.interferes dom l l' then acc +. d g l' else acc)
    0.0 path.Paths.links

let rate_on_link g dom path l =
  let w = domain_path_weight g dom path l in
  if Float.is_finite w && w > 0.0 then 1.0 /. w else 0.0

let path_rate g dom path =
  List.fold_left
    (fun acc l -> Float.min acc (rate_on_link g dom path l))
    infinity path.Paths.links

let idle_fraction_at g dom path ~rate l =
  if rate <= 0.0 then 1.0
  else begin
    let consumed = rate *. domain_path_weight g dom path l in
    Float.max 0.0 (Float.min 1.0 (1.0 -. consumed))
  end

let update g dom path =
  let caps = Multigraph.capacities g in
  let rate = path_rate g dom path in
  let touched = Array.make (Array.length caps) false in
  List.iter
    (fun l ->
      Array.iter
        (fun l' ->
          if not touched.(l') then begin
            touched.(l') <- true;
            caps.(l') <- caps.(l') *. idle_fraction_at g dom path ~rate l'
          end)
        (Domain.domain dom l))
    path.Paths.links;
  Multigraph.with_capacities g caps

(* ---------- the multipath exploration tree ---------- *)

(* [Multipath.find] with the reference kernels above. *)
let find ?(n = 5) ?(max_depth = 6) ?(min_rate = 0.1) ?(max_vertices = 2_000) g dom
    ~src ~dst =
  let vertices = ref 0 in
  let best =
    ref
      {
        Multipath.paths = [];
        total_rate = 0.0;
        tree_depth = 0;
        tree_vertices = 0;
      }
  in
  let rec explore g depth acc_paths acc_total =
    incr vertices;
    let candidates =
      if depth >= max_depth || !vertices >= max_vertices then []
      else
        k_shortest g ~src ~dst ~k:n
        |> List.filter_map (fun (p, _) ->
               let r = path_rate g dom p in
               if r >= min_rate then Some (p, r) else None)
    in
    match candidates with
    | [] ->
      if acc_total > !best.Multipath.total_rate then
        best :=
          {
            Multipath.paths = List.rev acc_paths;
            total_rate = acc_total;
            tree_depth = depth;
            tree_vertices = 0;
          }
    | _ ->
      List.iter
        (fun (p, r) ->
          explore (update g dom p) (depth + 1) ((p, r) :: acc_paths) (acc_total +. r))
        candidates
  in
  explore g 0 [] 0.0;
  { !best with Multipath.tree_vertices = !vertices }

(* ---------- Domain.standard's predicate ---------- *)

(* One link pair at a time: PLC links interfere under one panel, WiFi
   links when they share an endpoint or the nearest of their four
   endpoint pairs lies within carrier-sense range. *)
let standard_interferes ?(cs_factor = 1.5) g ~techs ~positions ~panels l l' =
  let a = Multigraph.link g l and b = Multigraph.link g l' in
  let open Multigraph in
  if a.tech <> b.tech then false
  else begin
    let tech = techs.(a.tech) in
    if Technology.is_plc tech then panels.(a.src) = panels.(b.src)
    else begin
      let dist u v = Geometry.distance positions.(u) positions.(v) in
      let cs_range = cs_factor *. tech.Technology.conn_radius_m in
      a.src = b.src || a.src = b.dst || a.dst = b.src || a.dst = b.dst
      || Float.min
           (Float.min (dist a.src b.src) (dist a.src b.dst))
           (Float.min (dist a.dst b.src) (dist a.dst b.dst))
         <= cs_range
    end
  end
