(* The dual arithmetic only involves links that can carry traffic
   (route links, plus links with external airtime) and the links whose
   interference domains contain them (their γ enters the route
   prices). Restricting the per-slot loops to those sets makes the
   controller's cost independent of the total network size — on the
   22-node testbed graph this is a ~50x saving.

   The priced links further fall into airtime classes: links whose
   I_i ∩ carriers is the same sequence of carriers. Eq. (7) sums the
   same demands in the same order for every member of a class, and (8)
   starts every member at γ = 0, so their y_i and γ_i are bit-identical
   at every slot. The state therefore keeps one y and one γ per class
   (2-3 classes cover the testbed's 616 priced links) and expands them
   per link only on request.

   Both the class key of a priced link and a carrier's Σ_{i∈I_l} γ_i
   depend on the link only through I_l, so they are computed once per
   twin class ([Domain.twin]): carriers under one PLC panel, or in one
   carrier-sense neighbourhood, share one key and one Σγ fold.

   Along I_l in domain order, consecutive links of one airtime class
   add the same γ term, so each carrier twin keeps I_l as runs of
   (class, count), and [Run_sum.add] adds a run of n equal terms in
   O(log n) operations with the result of n plain additions, bit for
   bit. A testbed twin's I_l of 190-426 links is one or two runs. *)

type t = {
  problem : Problem.t;
  carriers : int array;         (* links with possible demand *)
  on_link : int array array;    (* carrier position -> route ids *)
  demand : float array;         (* per carrier position: d_l Σ x_r + ext *)
  link_class : int array;       (* per link: its class, -1 if not priced *)
  class_carriers : int array array;
      (* per class: carrier positions of I_i ∩ carriers, in domain order *)
  y : float array;              (* per class: eq. (7) *)
  gamma : float array;          (* per class: eq. (8) *)
  carrier_twin : int array;     (* per carrier position: its twin among carriers *)
  twin_runs : int array array;
      (* per carrier twin: I_l as (class, count) runs, in domain order *)
  twin_gsum : float array;      (* per carrier twin: Σ_{i∈I_l} γ_i *)
  route_hops : int array array; (* per route: carrier positions of its links *)
  q : float array;              (* per route: eq. (9) *)
}

(* [| k0; n0; k1; n1; ... |]: the maximal runs of equal classes along
   [links], in order, with their lengths. *)
let class_runs link_class links =
  let n = Array.length links in
  let starts j = j = 0 || link_class.(links.(j)) <> link_class.(links.(j - 1)) in
  let n_runs = ref 0 in
  for j = 0 to n - 1 do
    if starts j then incr n_runs
  done;
  let runs = Array.make (2 * !n_runs) 0 in
  let r = ref (-2) in
  for j = 0 to n - 1 do
    if starts j then begin
      r := !r + 2;
      runs.(!r) <- link_class.(links.(j))
    end;
    runs.(!r + 1) <- runs.(!r + 1) + 1
  done;
  runs

let create (problem : Problem.t) =
  let g = problem.Problem.g in
  let dom = problem.Problem.dom in
  let n_links = Multigraph.num_links g in
  let members mem =
    Array.of_list (List.filter (fun l -> mem.(l)) (List.init n_links Fun.id))
  in
  let is_carrier = Array.make n_links false in
  Array.iter
    (fun p -> List.iter (fun l -> is_carrier.(l) <- true) p.Paths.links)
    problem.Problem.routes;
  Array.iteri
    (fun l ext -> if ext > 0.0 then is_carrier.(l) <- true)
    problem.Problem.external_airtime;
  let carriers = members is_carrier in
  let carrier_pos = Array.make n_links (-1) in
  Array.iteri (fun pos l -> carrier_pos.(l) <- pos) carriers;
  (* Links whose domain touches a carrier: their gamma can rise and
     feeds route prices. *)
  let is_priced = Array.make n_links false in
  Array.iter
    (fun l -> Array.iter (fun i -> is_priced.(i) <- true) (Domain.domain dom l))
    carriers;
  let priced = members is_priced in
  let on_link =
    Array.map
      (fun l ->
        let rs = ref [] in
        Array.iteri
          (fun r p -> if Paths.mem_link p l then rs := r :: !rs)
          problem.Problem.routes;
        Array.of_list (List.rev !rs))
      carriers
  in
  (* Class ids in order of first appearance along [priced]. A class
     key depends on i only through I_i, so it is built once per twin
     class and looked up by the first priced member of the twin. *)
  let class_ids = Hashtbl.create 8 in
  let classes = ref [] in
  let twin_class = Array.make (Domain.n_twins dom) (-1) in
  let link_class = Array.make n_links (-1) in
  Array.iter
    (fun i ->
      let tw = Domain.twin dom i in
      if twin_class.(tw) < 0 then begin
        let key =
          Array.map (fun l -> carrier_pos.(l)) (Domain.restrict dom is_carrier i)
        in
        twin_class.(tw) <-
          (match Hashtbl.find_opt class_ids key with
          | Some k -> k
          | None ->
            let k = Hashtbl.length class_ids in
            Hashtbl.add class_ids key k;
            classes := key :: !classes;
            k)
      end;
      link_class.(i) <- twin_class.(tw))
    priced;
  let class_carriers = Array.of_list (List.rev !classes) in
  let n_classes = Array.length class_carriers in
  (* The carriers' twin classes, numbered in carrier order, each with
     the classes of I_l (all priced) as runs in domain order. *)
  let carrier_twin = Array.make (Array.length carriers) 0 in
  let twin_pos = Array.make (Domain.n_twins dom) (-1) in
  let twins = ref [] and n_twins = ref 0 in
  Array.iteri
    (fun c l ->
      let tw = Domain.twin dom l in
      if twin_pos.(tw) < 0 then begin
        twin_pos.(tw) <- !n_twins;
        incr n_twins;
        twins := class_runs link_class (Domain.domain dom l) :: !twins
      end;
      carrier_twin.(c) <- twin_pos.(tw))
    carriers;
  let twin_runs = Array.of_list (List.rev !twins) in
  let route_hops =
    Array.map
      (fun p -> Array.of_list (List.map (fun l -> carrier_pos.(l)) p.Paths.links))
      problem.Problem.routes
  in
  let n_carriers = Array.length carriers in
  {
    problem;
    carriers;
    on_link;
    demand = Array.make n_carriers 0.0;
    link_class;
    class_carriers;
    y = Array.make n_classes 0.0;
    gamma = Array.make n_classes 0.0;
    carrier_twin;
    twin_runs;
    twin_gsum = Array.make (Array.length twin_runs) 0.0;
    route_hops;
    q = Array.make (Array.length route_hops) 0.0;
  }

(* Per-link view of a per-class array; 0 off the priced links. *)
let expand t per_class =
  Array.map (fun k -> if k < 0 then 0.0 else per_class.(k)) t.link_class

let gamma t = expand t t.gamma

(* Equation (7) into [t.y]. *)
let fill_airtimes t x =
  let d = t.problem.Problem.d and ext = t.problem.Problem.external_airtime in
  for c = 0 to Array.length t.carriers - 1 do
    let l = t.carriers.(c) and routes = t.on_link.(c) in
    let traffic = ref 0.0 in
    for j = 0 to Array.length routes - 1 do
      traffic := !traffic +. x.(routes.(j))
    done;
    t.demand.(c) <- (d.(l) *. !traffic) +. ext.(l)
  done;
  for k = 0 to Array.length t.y - 1 do
    let cs = t.class_carriers.(k) in
    let acc = ref 0.0 in
    for j = 0 to Array.length cs - 1 do
      acc := !acc +. t.demand.(cs.(j))
    done;
    t.y.(k) <- !acc
  done

let airtimes t ~x =
  fill_airtimes t x;
  expand t t.y

let step t ~x ~alpha =
  fill_airtimes t x;
  let target = 1.0 -. t.problem.Problem.delta in
  for k = 0 to Array.length t.gamma - 1 do
    t.gamma.(k) <- Float.max 0.0 (t.gamma.(k) +. (alpha *. (t.y.(k) -. target)))
  done

let route_costs t =
  let d = t.problem.Problem.d in
  (* Σ_{i ∈ I_l} γ_i once per twin class of the carriers, run by run,
     then the per-hop prices d_l Σγ summed along routes. *)
  for k = 0 to Array.length t.twin_runs - 1 do
    t.twin_gsum.(k) <- 0.0;
    Run_sum.add t.gamma t.twin_runs.(k) t.twin_gsum k
  done;
  for r = 0 to Array.length t.q - 1 do
    let hops = t.route_hops.(r) in
    let acc = ref 0.0 in
    for j = 0 to Array.length hops - 1 do
      let c = hops.(j) in
      acc := !acc +. (d.(t.carriers.(c)) *. t.twin_gsum.(t.carrier_twin.(c)))
    done;
    t.q.(r) <- !acc
  done;
  t.q
