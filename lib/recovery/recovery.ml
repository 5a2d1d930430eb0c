let dead_ack_threshold = 3

let missed ~injected ~acked ~frame_bytes =
  acked <= 0.0 && injected > 2.0 *. frame_bytes

let hello_timeout = 1.0

module Backoff = struct
  let base = 0.2
  let factor = 2.0
  let cap = 2.0
  let jitter = 0.1

  let delay rng ~attempt =
    if attempt < 0 then
      invalid_arg "Recovery.Backoff.delay: attempt must be >= 0";
    let capped = Float.min cap (base *. (factor ** float_of_int attempt)) in
    let u = Rng.float rng in
    capped *. (1.0 +. (jitter *. ((2.0 *. u) -. 1.0)))
end

module Detector = struct
  type verdict =
    | Alive
    | Suspect of int
    | Down of { since : float }
    | Still_down
    | Recovered of { down_for : float }

  type route = {
    mutable misses : int;
    mutable last_ok : float;
    mutable pending : float;
    mutable down : bool;
    mutable down_since : float;
  }

  type t = route array

  let create ~n_routes ~now =
    if n_routes < 0 then
      invalid_arg "Recovery.Detector.create: n_routes must be >= 0";
    Array.init n_routes (fun _ ->
        { misses = 0; last_ok = now; pending = 0.0; down = false; down_since = 0.0 })

  let check t route =
    if route < 0 || route >= Array.length t then
      invalid_arg "Recovery.Detector: route out of range"

  let dead t route =
    check t route;
    t.(route).down

  let suspicion t route =
    check t route;
    t.(route).misses

  let observe t ~route ~now ~injected ~acked ~frame_bytes =
    check t route;
    if (not (Float.is_finite injected)) || injected < 0.0 then
      invalid_arg "Recovery.Detector.observe: injected must be >= 0";
    let r = t.(route) in
    if acked > 0.0 then (
      r.misses <- 0;
      r.pending <- 0.0;
      r.last_ok <- now;
      if r.down then (
        let down_for = now -. r.down_since in
        r.down <- false;
        Recovered { down_for })
      else Alive)
    else (
      r.pending <- r.pending +. injected;
      if missed ~injected ~acked ~frame_bytes then r.misses <- r.misses + 1;
      if r.down then Still_down
      else
        let hello_expired = r.pending > 0.0 && now -. r.last_ok > hello_timeout in
        if r.misses >= dead_ack_threshold || hello_expired then (
          let since = r.last_ok in
          r.down <- true;
          r.down_since <- now;
          Down { since })
        else if r.misses > 0 then Suspect r.misses
        else Alive)
end

let stale_seq = 1
let fresh_seq = 2

let mask_caps g ~caps ~view =
  Array.init (Multigraph.num_links g) (fun l ->
      if caps.(l) <= 0.0 then 0.0
      else
        let lk = Multigraph.link g l in
        let present =
          Multigraph.find_links view ~src:lk.Multigraph.src
            ~dst:lk.Multigraph.dst
          |> List.exists (fun vl ->
                 (Multigraph.link view vl).Multigraph.tech = lk.Multigraph.tech)
        in
        if present then caps.(l) else 0.0)

let rediscover g ~caps ~viewer =
  let n = Multigraph.n_nodes g in
  if Array.length caps <> Multigraph.num_links g then
    invalid_arg "Recovery.rediscover: capacity vector length mismatch";
  if viewer < 0 || viewer >= n then invalid_arg "Recovery.rediscover: bad viewer";
  (* [advertise] draws nothing at noise 0, so this rng never advances:
     re-discovery is deterministic and consumes no caller randomness. *)
  let rng = Rng.create 0 in
  let dbs = Array.init n (fun _ -> Lsdb.create ()) in
  for v = 0 to n - 1 do
    List.iter
      (fun lsa -> Array.iter (fun db -> ignore (Lsdb.insert db ~now:0.0 lsa)) dbs)
      (Control_plane.advertise ~seq:stale_seq rng g ~node:v)
  done;
  let live = Multigraph.with_capacities g caps in
  let neighbors v =
    Multigraph.out_links live v
    |> List.filter_map (fun l ->
           if Multigraph.usable live l then
             Some (Multigraph.link live l).Multigraph.dst
           else None)
    |> List.sort_uniq compare
  in
  let rounds = ref 0 and messages = ref 0 in
  for v = 0 to n - 1 do
    List.iter
      (fun lsa ->
        let s = Lsdb.Flood.propagate ~neighbors ~dbs ~from:v lsa in
        rounds := max !rounds s.Lsdb.Flood.rounds;
        messages := !messages + s.Lsdb.Flood.messages)
      (Control_plane.advertise ~seq:fresh_seq rng live ~node:v)
  done;
  (* Dead or partitioned nodes never re-advertised, so the viewer's
     database still holds their pre-seeded stale LSAs; [Lsdb.graph]
     would resurrect those links (either endpoint's claim suffices).
     Keep only the freshly flooded generation. *)
  let fresh = Lsdb.create () in
  List.iter
    (fun lsa ->
      if lsa.Lsa.seq >= fresh_seq then
        ignore (Lsdb.insert fresh ~now:0.0 lsa))
    (Lsdb.entries dbs.(viewer));
  let view = Lsdb.graph fresh ~n_nodes:n ~n_techs:(Multigraph.n_techs g) in
  (mask_caps g ~caps ~view, { Lsdb.Flood.rounds = !rounds; messages = !messages })

(* The flood's outcome without the flood. A fresh advertisement
   travels only along usable links, so the viewer holds the fresh
   generation of exactly the nodes with a usable directed path to it:
   a breadth-first search backwards over [in_links]. [Lsdb.graph]
   keeps an edge when either endpoint claims it, so a usable link
   a->b survives iff a reaches the viewer (its own claim is the link)
   or b does and claims a usable b->a link of the same technology. *)
let survivors g ~caps ~src ~routes =
  let n = Multigraph.n_nodes g in
  if Array.length caps <> Multigraph.num_links g then
    invalid_arg "Recovery.survivors: capacity vector length mismatch";
  if src < 0 || src >= n then invalid_arg "Recovery.survivors: bad viewer";
  let links = Multigraph.links g in
  let reaches = Array.make n false in
  let queue = Array.make n src in
  reaches.(src) <- true;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    List.iter
      (fun l ->
        let u = links.(l).Multigraph.src in
        if caps.(l) > 0.0 && not reaches.(u) then begin
          reaches.(u) <- true;
          queue.(!tail) <- u;
          incr tail
        end)
      (Multigraph.in_links g v)
  done;
  let survives l =
    let lk = links.(l) in
    caps.(l) > 0.0
    && (reaches.(lk.Multigraph.src)
       || reaches.(lk.Multigraph.dst)
          && List.exists
               (fun l' ->
                 caps.(l') > 0.0
                 && links.(l').Multigraph.dst = lk.Multigraph.src
                 && links.(l').Multigraph.tech = lk.Multigraph.tech)
               (Multigraph.out_links g lk.Multigraph.dst))
  in
  Array.of_list
    (List.map (fun (p : Paths.t) -> List.for_all survives p.Paths.links) routes)

let replan g dom ~caps ~src ~dst =
  let masked, flood = rediscover g ~caps ~viewer:src in
  let comb = Multipath.find (Multigraph.with_capacities g masked) dom ~src ~dst in
  (comb, flood)
