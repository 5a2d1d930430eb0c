type message_type =
  | Topology_discovery
  | Topology_notification
  | Topology_query
  | Topology_response
  | Link_metric_query
  | Link_metric_response

type t = {
  message_type : message_type;
  message_id : int;
  fragment : int;
  last_fragment : bool;
  relay : bool;
  tlvs : Tlv.t list;
}

let message_type_code = function
  | Topology_discovery -> 0x0000
  | Topology_notification -> 0x0001
  | Topology_query -> 0x0002
  | Topology_response -> 0x0003
  | Link_metric_query -> 0x0005
  | Link_metric_response -> 0x0006

let message_type_of_code = function
  | 0x0000 -> Topology_discovery
  | 0x0001 -> Topology_notification
  | 0x0002 -> Topology_query
  | 0x0003 -> Topology_response
  | 0x0005 -> Link_metric_query
  | 0x0006 -> Link_metric_response
  | c -> invalid_arg (Printf.sprintf "Cmdu: unknown message type 0x%04x" c)

let make ?(relay = false) message_type ~message_id tlvs =
  if message_id < 0 || message_id > 0xFFFF then invalid_arg "Cmdu.make: bad id";
  { message_type; message_id; fragment = 0; last_fragment = true; relay; tlvs }

let encode t =
  let payload = Tlv.encode_all t.tlvs in
  let b = Bytes.make (8 + Bytes.length payload) '\000' in
  let code = message_type_code t.message_type in
  Bytes.set b 2 (Char.chr ((code lsr 8) land 0xFF));
  Bytes.set b 3 (Char.chr (code land 0xFF));
  Bytes.set b 4 (Char.chr ((t.message_id lsr 8) land 0xFF));
  Bytes.set b 5 (Char.chr (t.message_id land 0xFF));
  Bytes.set b 6 (Char.chr t.fragment);
  let flags =
    (if t.last_fragment then 0x80 else 0x00) lor if t.relay then 0x40 else 0x00
  in
  Bytes.set b 7 (Char.chr flags);
  Bytes.blit payload 0 b 8 (Bytes.length payload);
  b

let decode b =
  if Bytes.length b < 8 then invalid_arg "Cmdu.decode: truncated header";
  if Bytes.get b 0 <> '\000' then invalid_arg "Cmdu.decode: bad version";
  let u16 off = (Char.code (Bytes.get b off) lsl 8) lor Char.code (Bytes.get b (off + 1)) in
  let flags = Char.code (Bytes.get b 7) in
  {
    message_type = message_type_of_code (u16 2);
    message_id = u16 4;
    fragment = Char.code (Bytes.get b 6);
    last_fragment = flags land 0x80 <> 0;
    relay = flags land 0x40 <> 0;
    tlvs = Tlv.decode_all b ~pos:8;
  }
