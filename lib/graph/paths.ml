type t = { links : int list }

let of_links g links =
  match links with
  | [] -> invalid_arg "Paths.of_links: empty path"
  | first :: rest ->
    let rec check prev = function
      | [] -> ()
      | l :: tl ->
        let lk = Multigraph.link g l in
        if lk.Multigraph.src <> prev then
          invalid_arg "Paths.of_links: non-contiguous hops";
        check lk.Multigraph.dst tl
    in
    check (Multigraph.link g first).Multigraph.dst rest;
    { links }

let src g t =
  match t.links with
  | [] -> invalid_arg "Paths.src: empty path"
  | l :: _ -> (Multigraph.link g l).Multigraph.src

let dst g t =
  match t.links with
  | [] -> invalid_arg "Paths.dst: empty path"
  | links -> (Multigraph.link g (List.nth links (List.length links - 1))).Multigraph.dst

let nodes g t =
  match t.links with
  | [] -> []
  | first :: _ ->
    (Multigraph.link g first).Multigraph.src
    :: List.map (fun l -> (Multigraph.link g l).Multigraph.dst) t.links

let hops t = List.length t.links

let is_loopless g t =
  let ns = nodes g t in
  let seen = Hashtbl.create 16 in
  List.for_all
    (fun n ->
      if Hashtbl.mem seen n then false
      else begin
        Hashtbl.add seen n ();
        true
      end)
    ns

let techs g t = List.map (fun l -> (Multigraph.link g l).Multigraph.tech) t.links

let mem_link t l = List.mem l t.links

let pp g ppf t =
  match t.links with
  | [] -> Format.pp_print_string ppf "<empty>"
  | first :: _ ->
    Format.fprintf ppf "%d" (Multigraph.link g first).Multigraph.src;
    List.iter
      (fun l ->
        let lk = Multigraph.link g l in
        Format.fprintf ppf " -t%d-> %d" lk.Multigraph.tech lk.Multigraph.dst)
      t.links
