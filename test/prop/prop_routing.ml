(* Section 3's routing kernels and the interference build against their
   reference implementations ([Reference]), bit for bit, and the
   re-discovery verdict of [Recovery.survivors] against the simulated
   LSDB flood (see "re-discovery" below).

   Routing cases are random multigraphs on 2-9 nodes and 1-3
   technologies. A third of the directed links get a capacity of their
   own: zero, the smallest subnormal, a tiny value whose d_l = 1/c_l
   overflows or nearly does, or a small one. Interference follows one
   of the in-tree models (one domain per technology, a random
   predicate, panels). Each case draws a pair, a CSC switch, an
   [init_tech] and two rounds of random link and node bans; the bans
   go through one [Dijkstra.constraints], reset between the rounds.
   A failure prints the case and both results. *)

let seed_gen = QCheck.int_bound 999_999

type case = {
  seed : int;
  g : Multigraph.t;
  dom : Domain.t;
  dom_kind : string;
  src : int;
  dst : int;
  csc : bool;
  init_tech : int option;
  bans : (int list * int list) list;  (** per round: banned links, banned nodes *)
  k : int;
}

let odd_capacity rng =
  match Rng.int rng 5 with
  | 0 -> 0.0
  | 1 -> Int64.float_of_bits 1L
  | 2 -> Rng.uniform rng 0.0 1e-307
  | 3 -> Rng.uniform rng 1e-3 1.0
  | _ -> Rng.uniform rng 5.0 100.0

let case_of_seed seed =
  let rng = Rng.create (0x5EED + seed) in
  let n = 2 + Rng.int rng 8 in
  let n_techs = 1 + Rng.int rng 3 in
  let g0 = Prop_gen.random_graph rng ~n ~n_techs ~extra:(Rng.int rng (2 * n)) in
  let caps = Multigraph.capacities g0 in
  Array.iteri (fun l _ -> if Rng.int rng 3 = 0 then caps.(l) <- odd_capacity rng) caps;
  let g = Multigraph.with_capacities g0 caps in
  let dom_kind, dom =
    match Rng.int rng 3 with
    | 0 -> ("one domain per technology", Domain.single_domain_per_tech g)
    | 1 -> ("random predicate", Prop_gen.random_domain rng g)
    | _ -> ("panels", Prop_gen.panel_domain rng g)
  in
  let src = Rng.int rng n in
  let dst = (src + 1 + Rng.int rng (n - 1)) mod n in
  let ban_round () =
    let p_link = Rng.uniform rng 0.0 0.3 and p_node = Rng.uniform rng 0.0 0.2 in
    ( List.filter (fun _ -> Rng.float rng < p_link) (List.init (Multigraph.num_links g) Fun.id),
      List.filter (fun _ -> Rng.float rng < p_node) (List.init n Fun.id) )
  in
  let csc = Rng.int rng 4 > 0 in
  let init_tech = if Rng.bool rng then None else Some (Rng.int rng n_techs) in
  let bans = [ ban_round (); ban_round () ] in
  { seed; g; dom; dom_kind; src; dst; csc; init_tech; bans; k = 1 + Rng.int rng 6 }

let ints xs = "[" ^ String.concat "; " (List.map string_of_int xs) ^ "]"

let describe c =
  let g = c.g in
  let links =
    Array.to_list
      (Array.map
         (fun (lk : Multigraph.link) ->
           Printf.sprintf "  %d: %d->%d tech %d cap %h" lk.Multigraph.id
             lk.Multigraph.src lk.Multigraph.dst lk.Multigraph.tech
             (Multigraph.capacity g lk.Multigraph.id))
         (Multigraph.links g))
  in
  Printf.sprintf
    "case seed %d: %d nodes, %d techs, %s interference, %d -> %d, csc %b, \
     init_tech %s, k %d\n\
     bans (links, nodes) per round: %s\n\
     links:\n\
     %s"
    c.seed (Multigraph.n_nodes g) (Multigraph.n_techs g) c.dom_kind c.src c.dst c.csc
    (match c.init_tech with None -> "none" | Some t -> string_of_int t)
    c.k
    (String.concat " | "
       (List.map (fun (ls, ns) -> ints ls ^ ", " ^ ints ns) c.bans))
    (String.concat "\n" links)

let show_path = function
  | None -> "none"
  | Some ((p : Paths.t), cost) -> Printf.sprintf "%s cost %h" (ints p.Paths.links) cost

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_path a b =
  match (a, b) with
  | None, None -> true
  | Some ((p : Paths.t), c), Some ((p' : Paths.t), c') ->
    p.Paths.links = p'.Paths.links && same_float c c'
  | _ -> false

(* ---------- Dijkstra ---------- *)

let prop_dijkstra =
  QCheck.Test.make ~count:400
    ~name:"CSR Dijkstra = list-based reference, bit for bit (bans, init_tech)"
    seed_gen (fun seed ->
      let c = case_of_seed seed in
      let constraints = Dijkstra.constraints c.g in
      List.iteri
        (fun round (links, nodes) ->
          Dijkstra.reset constraints;
          List.iter (Dijkstra.ban_link constraints) links;
          List.iter (Dijkstra.ban_node constraints) nodes;
          let got =
            Dijkstra.shortest_path ~csc:c.csc ~constraints ?init_tech:c.init_tech c.g
              ~src:c.src ~dst:c.dst
          in
          let expected =
            Reference.shortest_path ~csc:c.csc
              ~banned_links:(fun l -> List.mem l links)
              ~banned_nodes:(fun u -> List.mem u nodes)
              ?init_tech:c.init_tech c.g ~src:c.src ~dst:c.dst
          in
          if not (same_path got expected) then
            QCheck.Test.fail_reportf "%s\nban round %d: library %s, reference %s"
              (describe c) round (show_path got) (show_path expected))
        c.bans;
      true)

(* ---------- Yen ---------- *)

let show_paths ps = String.concat "; " (List.map (fun p -> show_path (Some p)) ps)

let prop_yen =
  QCheck.Test.make ~count:300
    ~name:"stamp-ban Yen = hash-table reference, bit for bit" seed_gen
    (fun seed ->
      let c = case_of_seed seed in
      let got = Yen.k_shortest ~csc:c.csc c.g ~src:c.src ~dst:c.dst ~k:c.k in
      let expected = Reference.k_shortest ~csc:c.csc c.g ~src:c.src ~dst:c.dst ~k:c.k in
      if
        not
          (List.length got = List.length expected
          && List.for_all2 (fun a b -> same_path (Some a) (Some b)) got expected)
      then
        QCheck.Test.fail_reportf "%s\nlibrary: %s\nreference: %s" (describe c)
          (show_paths got) (show_paths expected);
      true)

(* ---------- update() ---------- *)

let show_caps g =
  String.concat " "
    (List.init (Multigraph.num_links g) (fun l -> Printf.sprintf "%h" (Multigraph.capacity g l)))

(* Two levels of the exploration tree: update() along each of Yen's
   paths, then along the first path of each resulting view. *)
let prop_update =
  QCheck.Test.make ~count:300
    ~name:"per-class update() = per-link reference, bit for bit" seed_gen
    (fun seed ->
      let c = case_of_seed seed in
      let check depth g (p : Paths.t) =
        let got = Update.update g c.dom p and expected = Reference.update g c.dom p in
        let rate = Update.path_rate g c.dom p
        and rate_ref = Reference.path_rate g c.dom p in
        let same_caps =
          List.for_all
            (fun l -> same_float (Multigraph.capacity got l) (Multigraph.capacity expected l))
            (List.init (Multigraph.num_links g) Fun.id)
        in
        if not (same_caps && same_float rate rate_ref) then
          QCheck.Test.fail_reportf
            "%s\ndepth %d, path %s:\nlibrary R(P) %h, capacities %s\nreference R(P) %h, \
             capacities %s"
            (describe c) depth (ints p.Paths.links) rate (show_caps got) rate_ref
            (show_caps expected);
        got
      in
      List.iter
        (fun (p, _) ->
          let g' = check 1 c.g p in
          match Reference.k_shortest ~csc:c.csc g' ~src:c.src ~dst:c.dst ~k:1 with
          | (p', _) :: _ -> ignore (check 2 g' p')
          | [] -> ())
        (Reference.k_shortest ~csc:c.csc c.g ~src:c.src ~dst:c.dst ~k:c.k);
      true)

(* ---------- the exploration tree on the paper's topologies ---------- *)

let testbed_net = lazy (Empower.of_instance (Testbed.generate (Rng.create 4242)) Builder.Hybrid)

let prop_multipath_topologies =
  QCheck.Test.make ~count:45
    ~name:"Multipath.find = reference kernels on testbed, residential, enterprise pairs"
    seed_gen (fun seed ->
      let kind, net =
        match seed mod 3 with
        | 0 -> ("testbed", Lazy.force testbed_net)
        | 1 ->
          ( "residential",
            Empower.of_instance (Residential.generate (Rng.create seed)) Builder.Hybrid )
        | _ ->
          ( "enterprise",
            Empower.of_instance (Enterprise.generate (Rng.create seed)) Builder.Hybrid )
      in
      let g = net.Empower.g and dom = net.Empower.dom in
      let rng = Rng.create (seed + 1) in
      let n = Multigraph.n_nodes g in
      let src = Rng.int rng n in
      let dst = (src + 1 + Rng.int rng (n - 1)) mod n in
      let got = Multipath.find g dom ~src ~dst
      and expected = Reference.find g dom ~src ~dst in
      let bytes v = Marshal.to_string v [ Marshal.No_sharing ] in
      if bytes got <> bytes expected then begin
        let show (c : Multipath.combination) =
          Printf.sprintf "total %h, depth %d, %d vertices, routes %s" c.Multipath.total_rate
            c.Multipath.tree_depth c.Multipath.tree_vertices
            (String.concat "; "
               (List.map
                  (fun ((p : Paths.t), r) -> Printf.sprintf "%s at %h" (ints p.Paths.links) r)
                  c.Multipath.paths))
        in
        QCheck.Test.fail_reportf "%s (seed %d), %d -> %d:\nlibrary: %s\nreference: %s" kind
          seed src dst (show got) (show expected)
      end;
      true)

(* ---------- interference ---------- *)

(* legacy-mix's devices move nodes 2 and 8 onto a second panel; the
   scenario catalog is a dependency of this test. *)
let legacy_mix_devices =
  lazy
    (match Scenario.load "../../scenarios/legacy-mix.json" with
    | Ok spec -> spec.Scenario.devices
    | Error e -> failwith e)

let prop_interference_standard =
  QCheck.Test.make ~count:24
    ~name:"Domain.standard node-pair table = per-link-pair reference predicate"
    seed_gen (fun seed ->
      let kind, inst =
        match seed mod 4 with
        | 0 -> ("residential", Residential.generate (Rng.create seed))
        | 1 -> ("enterprise", Enterprise.generate (Rng.create seed))
        | 2 -> ("testbed", Testbed.generate (Rng.create seed))
        | _ ->
          ( "testbed + legacy-mix devices",
            Device.apply (Testbed.generate (Rng.create seed)) (Lazy.force legacy_mix_devices) )
      in
      let scenario = Builder.Hybrid in
      let g = Builder.graph inst scenario in
      let got = Domain.of_instance inst scenario g in
      let nodes = inst.Builder.nodes in
      let interferes =
        Reference.standard_interferes g ~techs:(Builder.techs scenario)
          ~positions:(Array.map (fun nd -> nd.Builder.pos) nodes)
          ~panels:(Array.map (fun nd -> nd.Builder.panel) nodes)
      in
      let expected = Domain.create g ~interferes in
      let n = Multigraph.num_links g in
      let fail what = QCheck.Test.fail_reportf "%s (seed %d, %d links): %s" kind seed n what in
      if Domain.n_twins got <> Domain.n_twins expected then
        fail
          (Printf.sprintf "%d twin classes, reference %d" (Domain.n_twins got)
             (Domain.n_twins expected));
      for l = 0 to n - 1 do
        for l' = 0 to n - 1 do
          let want =
            l = l'
            || l' = (Multigraph.link g l).Multigraph.peer
            || interferes l l' || interferes l' l
          in
          if Domain.interferes got l l' <> want || Domain.interferes expected l l' <> want
          then
            fail
              (Printf.sprintf "links %d and %d: interferes %b, reference predicate %b" l
                 l' (Domain.interferes got l l') want)
        done;
        if Domain.twin got l <> Domain.twin expected l then
          fail
            (Printf.sprintf "link %d: twin %d, reference %d" l (Domain.twin got l)
               (Domain.twin expected l));
        if Domain.domain got l <> Domain.domain expected l then
          fail
            (Printf.sprintf "link %d: I_l %s, reference %s" l
               (ints (Array.to_list (Domain.domain got l)))
               (ints (Array.to_list (Domain.domain expected l))))
      done;
      true)

(* ---------- re-discovery ---------- *)

(* [Recovery.survivors] computes the outcome of the LSDB re-flood from
   reverse reachability; [Recovery.rediscover] simulates the flood.
   Cases are multigraphs on 2-11 nodes and 2-3 technologies with
   parallel same-technology edges, and on one case in three a hub
   with more than [Lsa.max_links] usable out-links, so its
   advertisement fragments. Capacities then lose whole nodes, single
   directions of links and, on one case in three, every link crossing
   a random cut in one direction or both. The routes are every link
   on its own plus random walks. *)

type survivors_case = {
  sv_seed : int;
  sv_g : Multigraph.t;
  sv_caps : float array;
  viewer : int;
  routes : Paths.t list;
}

let survivors_case_of_seed seed =
  let rng = Rng.create (0x5C0F + seed) in
  let n = 2 + Rng.int rng 10 in
  let n_techs = 2 + Rng.int rng 2 in
  let edge u v = (u, v, Rng.int rng n_techs, Rng.uniform rng 5.0 100.0) in
  let edges = ref [] in
  for v = 1 to n - 1 do
    edges := edge (Rng.int rng v) v :: !edges
  done;
  for _ = 1 to Rng.int rng (3 * n) do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v then edges := edge u v :: !edges
  done;
  (* Parallel copies of existing edges, technology included. *)
  let copies =
    List.filteri (fun _ _ -> Rng.int rng 4 = 0) !edges
    |> List.map (fun (u, v, k, _) -> (u, v, k, Rng.uniform rng 5.0 100.0))
  in
  edges := copies @ !edges;
  if Rng.int rng 3 = 0 then begin
    let hub = Rng.int rng n in
    for _ = 0 to Lsa.max_links + Rng.int rng 24 do
      edges := edge hub ((hub + 1 + Rng.int rng (n - 1)) mod n) :: !edges
    done
  end;
  let g = Multigraph.create ~n_nodes:n ~n_techs ~edges:(List.rev !edges) in
  let caps = Multigraph.capacities g in
  let links = Multigraph.links g in
  let p_kill = Rng.uniform rng 0.0 0.3 and p_dir = Rng.uniform rng 0.0 0.3 in
  for v = 0 to n - 1 do
    if Rng.float rng < p_kill then begin
      List.iter (fun l -> caps.(l) <- 0.0) (Multigraph.out_links g v);
      List.iter (fun l -> caps.(l) <- 0.0) (Multigraph.in_links g v)
    end
  done;
  Array.iteri (fun l _ -> if Rng.float rng < p_dir then caps.(l) <- 0.0) caps;
  (if Rng.int rng 3 = 0 then
     let side = Array.init n (fun _ -> Rng.bool rng) in
     let both = Rng.bool rng in
     Array.iter
       (fun (lk : Multigraph.link) ->
         let a = side.(lk.Multigraph.src) and b = side.(lk.Multigraph.dst) in
         if a <> b && (both || a) then caps.(lk.Multigraph.id) <- 0.0)
       links);
  let walk () =
    let rec go u len acc =
      match Multigraph.out_links g u with
      | [] -> List.rev acc
      | out ->
        let l = List.nth out (Rng.int rng (List.length out)) in
        if len = 0 then List.rev (l :: acc)
        else go links.(l).Multigraph.dst (len - 1) (l :: acc)
    in
    go (Rng.int rng n) (1 + Rng.int rng 4) []
  in
  let walks = List.filter (( <> ) []) (List.init 8 (fun _ -> walk ())) in
  let routes =
    List.map (Paths.of_links g)
      (List.init (Multigraph.num_links g) (fun l -> [ l ]) @ walks)
  in
  { sv_seed = seed; sv_g = g; sv_caps = caps; viewer = Rng.int rng n; routes }

let flood_survivors c =
  let masked, _ = Recovery.rediscover c.sv_g ~caps:c.sv_caps ~viewer:c.viewer in
  Array.of_list
    (List.map
       (fun (p : Paths.t) -> List.for_all (fun l -> masked.(l) > 0.0) p.Paths.links)
       c.routes)

let describe_survivors c =
  Printf.sprintf "survivors case seed %d: %d nodes, %d techs, viewer %d\nlinks:\n%s"
    c.sv_seed (Multigraph.n_nodes c.sv_g) (Multigraph.n_techs c.sv_g) c.viewer
    (String.concat "\n"
       (Array.to_list
          (Array.map
             (fun (lk : Multigraph.link) ->
               Printf.sprintf "  %d: %d->%d tech %d cap %g" lk.Multigraph.id
                 lk.Multigraph.src lk.Multigraph.dst lk.Multigraph.tech
                 c.sv_caps.(lk.Multigraph.id))
             (Multigraph.links c.sv_g))))

let prop_survivors =
  QCheck.Test.make ~count:500
    ~name:"Recovery.survivors = simulated LSDB re-flood (kills, one-way links, cuts)"
    seed_gen (fun seed ->
      let c = survivors_case_of_seed seed in
      let got = Recovery.survivors c.sv_g ~caps:c.sv_caps ~src:c.viewer ~routes:c.routes in
      let expected = flood_survivors c in
      (if got <> expected then
         let i = ref 0 in
         while got.(!i) = expected.(!i) do
           incr i
         done;
         QCheck.Test.fail_reportf "%s\nroute %s: survivors %b, flood %b"
           (describe_survivors c)
           (ints (List.nth c.routes !i).Paths.links)
           got.(!i) expected.(!i));
      true)

(* The property above must see what tells the flood apart from
   simpler rules: a fragmented advertisement, and a node that reaches
   the viewer without the viewer reaching it (so forward reachability
   would give a different answer). *)
let prop_survivors_cases_cover =
  QCheck.Test.make ~count:1
    ~name:"survivors cases include fragments and one-way reachability" QCheck.unit
    (fun () ->
      let cases = List.init 60 survivors_case_of_seed in
      let reach c ~forward =
        let g = c.sv_g in
        let seen = Array.make (Multigraph.n_nodes g) false in
        let rec visit v =
          if not seen.(v) then begin
            seen.(v) <- true;
            List.iter
              (fun l ->
                let lk = Multigraph.link g l in
                if c.sv_caps.(l) > 0.0 then
                  visit (if forward then lk.Multigraph.dst else lk.Multigraph.src))
              (if forward then Multigraph.out_links g v else Multigraph.in_links g v)
          end
        in
        visit c.viewer;
        seen
      in
      let fragments c =
        List.exists
          (fun v ->
            List.length
              (List.filter (fun l -> c.sv_caps.(l) > 0.0) (Multigraph.out_links c.sv_g v))
            > Lsa.max_links)
          (List.init (Multigraph.n_nodes c.sv_g) Fun.id)
      in
      List.exists fragments cases
      && List.exists (fun c -> reach c ~forward:false <> reach c ~forward:true) cases)

let tests =
  [
    prop_dijkstra;
    prop_yen;
    prop_update;
    prop_multipath_topologies;
    prop_interference_standard;
    prop_survivors;
    prop_survivors_cases_cover;
  ]
