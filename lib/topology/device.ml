(* Device-class masking over a sampled instance. See device.mli. *)

type cls = Full | Legacy | Relay

type spec = { node : int; cls : cls; panel : int option }

let cls_name = function Full -> "full" | Legacy -> "legacy" | Relay -> "relay"

let cls_of_name = function
  | "full" -> Some Full
  | "legacy" -> Some Legacy
  | "relay" -> Some Relay
  | _ -> None

let validate (inst : Builder.instance) specs =
  let n = Array.length inst.Builder.nodes in
  let seen = Hashtbl.create 8 in
  let rec go = function
    | [] -> Ok ()
    | { node; panel; _ } :: rest ->
        if node < 0 || node >= n then
          Error (Printf.sprintf "device spec: node %d out of range" node)
        else if Hashtbl.mem seen node then
          Error (Printf.sprintf "device spec: node %d listed twice" node)
        else if (match panel with Some p -> p < 0 | None -> false) then
          Error (Printf.sprintf "device spec: node %d: negative panel" node)
        else begin
          Hashtbl.add seen node ();
          go rest
        end
  in
  go specs

let apply (inst : Builder.instance) specs =
  (match validate inst specs with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Device.apply: " ^ msg));
  let nodes =
    Array.map
      (fun (nd : Builder.node) ->
        match List.find_opt (fun s -> s.node = nd.Builder.id) specs with
        | None -> nd
        | Some s ->
            let dual =
              match s.cls with Legacy -> false | Full | Relay -> nd.Builder.dual
            in
            let panel =
              match s.panel with Some p -> p | None -> nd.Builder.panel
            in
            { nd with Builder.dual; panel })
      inst.Builder.nodes
  in
  let n = Array.length nodes in
  let copy m = Array.map Array.copy m in
  let wifi2 = copy inst.Builder.wifi2 and plc = copy inst.Builder.plc in
  (* Mask only: second-medium entries survive between dual nodes, PLC
     additionally only between same-panel pairs. Entries that were 0
     in the original draw stay 0 — capability is never invented. *)
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let both_dual = nodes.(i).Builder.dual && nodes.(j).Builder.dual in
      if not both_dual then begin
        wifi2.(i).(j) <- 0.0;
        plc.(i).(j) <- 0.0
      end;
      if nodes.(i).Builder.panel <> nodes.(j).Builder.panel then
        plc.(i).(j) <- 0.0
    done
  done;
  { inst with Builder.nodes; wifi2; plc }

let originates specs node =
  match List.find_opt (fun s -> s.node = node) specs with
  | Some { cls = Relay; _ } -> false
  | _ -> true
