type entry = {
  lsa : Lsa.t;
  mutable installed_at : float;
}

type t = {
  table : (int * int, entry) Hashtbl.t;  (* origin, fragment -> freshest *)
}

let create () = { table = Hashtbl.create 32 }

let insert t ~now (lsa : Lsa.t) =
  let key = (lsa.Lsa.origin, lsa.Lsa.fragment) in
  match Hashtbl.find_opt t.table key with
  | None ->
    Hashtbl.replace t.table key { lsa; installed_at = now };
    `Installed
  | Some e ->
    if lsa.Lsa.seq > e.lsa.Lsa.seq then begin
      Hashtbl.replace t.table key { lsa; installed_at = now };
      `Installed
    end
    else if lsa.Lsa.seq = e.lsa.Lsa.seq then `Duplicate
    else `Stale

let lookup t ~origin =
  let frags =
    Hashtbl.fold
      (fun (o, _) e acc -> if o = origin then e.lsa :: acc else acc)
      t.table []
  in
  List.sort (fun (a : Lsa.t) b -> compare a.Lsa.fragment b.Lsa.fragment) frags

let entries t =
  Hashtbl.fold (fun _ e acc -> e.lsa :: acc) t.table []
  |> List.sort (fun (a : Lsa.t) b ->
         compare (a.Lsa.origin, a.Lsa.fragment) (b.Lsa.origin, b.Lsa.fragment))

let purge t ~now ~max_age =
  let dead =
    Hashtbl.fold
      (fun origin e acc -> if now -. e.installed_at > max_age then origin :: acc else acc)
      t.table []
  in
  List.iter (Hashtbl.remove t.table) dead;
  List.length dead

let graph t ~n_nodes ~n_techs =
  (* Collect directional claims (u, v, tech) -> capacity, then build
     one edge per unordered pair+tech, averaging both ends' estimates
     when available. *)
  let claims = Hashtbl.create 64 in
  List.iter
    (fun (lsa : Lsa.t) ->
      if lsa.Lsa.origin < n_nodes then
        List.iter
          (fun (e : Lsa.link_entry) ->
            if e.Lsa.neighbor < n_nodes && e.Lsa.neighbor <> lsa.Lsa.origin
               && e.Lsa.tech < n_techs && e.Lsa.capacity_mbps > 0.0
            then begin
              let u = min lsa.Lsa.origin e.Lsa.neighbor in
              let v = max lsa.Lsa.origin e.Lsa.neighbor in
              let key = (u, v, e.Lsa.tech) in
              let prev = try Hashtbl.find claims key with Not_found -> [] in
              Hashtbl.replace claims key (e.Lsa.capacity_mbps :: prev)
            end)
          lsa.Lsa.links)
    (entries t);
  let edges =
    Hashtbl.fold
      (fun (u, v, tech) caps acc ->
        let mean = List.fold_left ( +. ) 0.0 caps /. float_of_int (List.length caps) in
        (u, v, tech, mean) :: acc)
      claims []
    |> List.sort compare
  in
  Multigraph.create ~n_nodes ~n_techs ~edges

module Flood = struct
  type stats = {
    rounds : int;
    messages : int;
  }

  let propagate ~neighbors ~dbs ~from lsa =
    let n = Array.length dbs in
    let pending = Array.make n [] in
    (match insert dbs.(from) ~now:0.0 lsa with
    | `Installed -> pending.(from) <- [ lsa ]
    | `Duplicate | `Stale -> ());
    let rounds = ref 0 and messages = ref 0 in
    let continue = ref (pending.(from) <> []) in
    while !continue do
      incr rounds;
      let next = Array.make n [] in
      Array.iteri
        (fun u to_send ->
          List.iter
            (fun l ->
              List.iter
                (fun v ->
                  incr messages;
                  match insert dbs.(v) ~now:0.0 l with
                  | `Installed -> next.(v) <- l :: next.(v)
                  | `Duplicate | `Stale -> ())
                (neighbors u))
            to_send)
        pending;
      Array.blit next 0 pending 0 n;
      continue := Array.exists (fun l -> l <> []) pending
    done;
    { rounds = !rounds; messages = !messages }
end
