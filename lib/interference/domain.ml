(* The pairwise relation is one bit per ordered pair, row-major. Links
   whose rows are identical have the same I_l and form one twin class
   (carrier sense and one collision domain per PLC panel make most
   links twins); each class's I_l is one sorted int array, built once
   from a member's row and handed out by reference to every member.
   On the 22-node testbed (616 links, 353 per I_l on average, 4 twin
   classes) the bits take 47 KB and the class arrays 988 words. *)
type t = {
  n : int;
  bits : Bytes.t;             (* symmetric pairwise interference *)
  twin : int array;           (* per link: its twin class *)
  domains : int array array;  (* per twin class: I_l, sorted, includes l *)
}

let bit_set bits k =
  let i = k lsr 3 in
  Bytes.set_uint8 bits i (Bytes.get_uint8 bits i lor (1 lsl (k land 7)))

let bit_get bits k = Bytes.get_uint8 bits (k lsr 3) land (1 lsl (k land 7)) <> 0

let row_array n bits l =
  let row = l * n in
  let size = ref 0 in
  for l' = 0 to n - 1 do
    if bit_get bits (row + l') then incr size
  done;
  let d = Array.make !size 0 in
  let k = ref 0 in
  for l' = 0 to n - 1 do
    if bit_get bits (row + l') then begin
      d.(!k) <- l';
      incr k
    end
  done;
  d

let rows_equal n bits a b =
  let ra = a * n and rb = b * n in
  let i = ref 0 in
  while !i < n && bit_get bits (ra + !i) = bit_get bits (rb + !i) do
    incr i
  done;
  !i = n

(* Twin classes numbered in order of their lowest link: hash each row,
   then compare it with the first member of every class that hashed
   the same. *)
let build n bits =
  let twin = Array.make n 0 in
  let first = Array.make n 0 in
  let n_classes = ref 0 in
  let by_hash = Hashtbl.create 16 in
  for l = 0 to n - 1 do
    let row = l * n in
    let h = ref 0 in
    for l' = 0 to n - 1 do
      if bit_get bits (row + l') then h := (!h * 31) + l' + 1
    done;
    let candidates = Option.value ~default:[] (Hashtbl.find_opt by_hash !h) in
    match List.find_opt (fun k -> rows_equal n bits first.(k) l) candidates with
    | Some k -> twin.(l) <- k
    | None ->
      let k = !n_classes in
      incr n_classes;
      first.(k) <- l;
      Hashtbl.replace by_hash !h (k :: candidates);
      twin.(l) <- k
  done;
  { n; bits; twin; domains = Array.init !n_classes (fun k -> row_array n bits first.(k)) }

(* The relation of every link with itself and its peer, plus each pair
   [fill] passes to [add]. *)
let of_pairs g fill =
  let n = Multigraph.num_links g in
  let bits = Bytes.make (((n * n) + 7) / 8) '\000' in
  let add l l' =
    bit_set bits ((l * n) + l');
    bit_set bits ((l' * n) + l)
  in
  for l = 0 to n - 1 do
    add l l;
    add l (Multigraph.link g l).Multigraph.peer
  done;
  fill add;
  build n bits

let create g ~interferes =
  let n = Multigraph.num_links g in
  of_pairs g (fun add ->
      for l = 0 to n - 1 do
        for l' = l + 1 to n - 1 do
          if interferes l l' || interferes l' l then add l l'
        done
      done)

let standard ?(cs_factor = 1.5) g ~techs ~positions ~panels =
  let n = Multigraph.n_nodes g in
  (* Per WiFi technology, the node pairs within carrier-sense range
     (row-major; a node is in range of itself): two links sense each
     other when any endpoint of one is in range of any endpoint of the
     other. *)
  let in_range =
    Array.map
      (fun tech ->
        if Technology.is_plc tech then [||]
        else begin
          let cs_range = cs_factor *. tech.Technology.conn_radius_m in
          Array.init (n * n) (fun i ->
              let u = i / n and v = i mod n in
              u = v || Geometry.distance positions.(u) positions.(v) <= cs_range)
        end)
      techs
  in
  (* Links of different technologies never interfere and the
     predicate is symmetric, so each same-technology pair is tested
     once. *)
  let links = Array.to_list (Multigraph.links g) in
  of_pairs g (fun add ->
      Array.iteri
        (fun k tech ->
          let same =
            Array.of_list (List.filter (fun (lk : Multigraph.link) -> lk.tech = k) links)
          in
          let interferes =
            if Technology.is_plc tech then
              (* One collision domain per electrical panel (one coordinator). *)
              fun (a : Multigraph.link) (b : Multigraph.link) ->
              panels.(a.src) = panels.(b.src)
            else begin
              let near = in_range.(k) in
              fun a b ->
                near.((a.src * n) + b.src)
                || near.((a.src * n) + b.dst)
                || near.((a.dst * n) + b.src)
                || near.((a.dst * n) + b.dst)
            end
          in
          for i = 0 to Array.length same - 1 do
            for j = i + 1 to Array.length same - 1 do
              if interferes same.(i) same.(j) then add same.(i).id same.(j).id
            done
          done)
        techs)

let of_instance inst scenario g =
  let nodes = inst.Builder.nodes in
  let positions = Array.map (fun nd -> nd.Builder.pos) nodes in
  let panels = Array.map (fun nd -> nd.Builder.panel) nodes in
  standard g ~techs:(Builder.techs scenario) ~positions ~panels

let single_domain_per_tech g =
  let interferes l l' =
    (Multigraph.link g l).Multigraph.tech = (Multigraph.link g l').Multigraph.tech
  in
  create g ~interferes

let interferes t l l' =
  if l < 0 || l >= t.n || l' < 0 || l' >= t.n then invalid_arg "Domain.interferes";
  bit_get t.bits ((l * t.n) + l')

let domain t l = t.domains.(t.twin.(l))

let twin t l = t.twin.(l)

let n_twins t = Array.length t.domains

let restrict t mem l =
  let d = domain t l in
  let size = ref 0 in
  for i = 0 to Array.length d - 1 do
    if mem.(d.(i)) then incr size
  done;
  let r = Array.make !size 0 in
  let k = ref 0 in
  for i = 0 to Array.length d - 1 do
    if mem.(d.(i)) then begin
      r.(!k) <- d.(i);
      incr k
    end
  done;
  r

let num_links t = t.n

let graph_cliques t =
  let neighbors v =
    Array.fold_right (fun u acc -> if u <> v then u :: acc else acc) (domain t v) []
  in
  Clique.bron_kerbosch ~n:t.n ~neighbors
