type t = {
  node : int;
  techs : Technology.t array;
  (* remote AL mac -> (highest message id seen, their link metrics) *)
  devices : (string, int * Tlv.link_metric list) Hashtbl.t;
}

let create ~node ~techs = { node; techs; devices = Hashtbl.create 16 }

(* The AL MAC uses pseudo-technology 0xFF. *)
let al_mac t = Tlv.mac_of_node ~node:t.node ~tech:0xFF

let media_of_tech (tech : Technology.t) =
  match tech.Technology.medium with
  | Technology.Wifi channel -> Tlv.Wifi channel
  | Technology.Plc -> Tlv.Plc_1901

let node_of_mac m =
  if String.length m <> 6 then None
  else if m.[0] <> '\x02' || m.[1] <> '\x19' || m.[2] <> '\x05' then None
  else begin
    let tech = Char.code m.[3] in
    let node = (Char.code m.[4] lsl 8) lor Char.code m.[5] in
    Some (node, tech)
  end

let topology_response t g ~message_id =
  let ifaces =
    Array.to_list
      (Array.map
         (fun tech ->
           {
             Tlv.mac = Tlv.mac_of_node ~node:t.node ~tech:tech.Technology.index;
             media = media_of_tech tech;
           })
         t.techs)
  in
  let metrics =
    List.filter_map
      (fun l ->
        if Multigraph.usable g l then begin
          let lk = Multigraph.link g l in
          Some
            (Tlv.Link_metric
               {
                 Tlv.local_mac =
                   Tlv.mac_of_node ~node:lk.Multigraph.src ~tech:lk.Multigraph.tech;
                 remote_mac =
                   Tlv.mac_of_node ~node:lk.Multigraph.dst ~tech:lk.Multigraph.tech;
                 capacity_mbps = Multigraph.capacity g l;
               })
        end
        else None)
      (Multigraph.out_links g t.node)
  in
  Cmdu.make Cmdu.Topology_response ~message_id
    (Tlv.Al_mac_address (al_mac t)
    :: Tlv.Device_information (al_mac t, ifaces)
    :: metrics)

let handle t (cmdu : Cmdu.t) =
  match cmdu.Cmdu.message_type with
  | Cmdu.Topology_response | Cmdu.Link_metric_response | Cmdu.Topology_notification ->
    let sender =
      List.find_map
        (function Tlv.Al_mac_address m -> Some m | _ -> None)
        cmdu.Cmdu.tlvs
    in
    (match sender with
    | None -> ()
    | Some al ->
      let fresh =
        match Hashtbl.find_opt t.devices al with
        | Some (last_id, _) -> cmdu.Cmdu.message_id > last_id
        | None -> true
      in
      if fresh then begin
        let metrics =
          List.filter_map
            (function Tlv.Link_metric lm -> Some lm | _ -> None)
            cmdu.Cmdu.tlvs
        in
        Hashtbl.replace t.devices al (cmdu.Cmdu.message_id, metrics)
      end)
  | Cmdu.Topology_discovery | Cmdu.Topology_query | Cmdu.Link_metric_query -> ()

let known_devices t = Hashtbl.length t.devices

let graph t ~n_nodes =
  let n_techs = Array.length t.techs in
  let claims = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _ (_, metrics) ->
      List.iter
        (fun (lm : Tlv.link_metric) ->
          match (node_of_mac lm.Tlv.local_mac, node_of_mac lm.Tlv.remote_mac) with
          | Some (u, tu), Some (v, tv)
            when tu = tv && tu < n_techs && u < n_nodes && v < n_nodes && u <> v
                 && lm.Tlv.capacity_mbps > 0.0 ->
            let key = (min u v, max u v, tu) in
            let prev = try Hashtbl.find claims key with Not_found -> [] in
            Hashtbl.replace claims key (lm.Tlv.capacity_mbps :: prev)
          | _ -> ())
        metrics)
    t.devices;
  let edges =
    Hashtbl.fold
      (fun (u, v, tech) caps acc ->
        let mean = List.fold_left ( +. ) 0.0 caps /. float_of_int (List.length caps) in
        (u, v, tech, mean) :: acc)
      claims []
    |> List.sort compare
  in
  Multigraph.create ~n_nodes ~n_techs ~edges
