type media_type =
  | Ethernet
  | Wifi of int
  | Plc_1901

type iface = {
  mac : string;
  media : media_type;
}

type link_metric = {
  local_mac : string;
  remote_mac : string;
  capacity_mbps : float;
}

type t =
  | End_of_message
  | Al_mac_address of string
  | Mac_address of string
  | Device_information of string * iface list
  | Link_metric of link_metric
  | Unknown of int * string

let t_end = 0x00
let t_al_mac = 0x01
let t_mac = 0x02
let t_device_info = 0x03
let t_link_metric = 0x09

let media_code = function
  | Ethernet -> 0x0000
  | Wifi variant ->
    if variant < 0 || variant > 0xFF then invalid_arg "Tlv: bad wifi variant";
    0x0100 lor variant
  | Plc_1901 -> 0x0200

let media_of_code c =
  match c land 0xFF00 with
  | 0x0000 -> Ethernet
  | 0x0100 -> Wifi (c land 0xFF)
  | 0x0200 -> Plc_1901
  | _ -> invalid_arg "Tlv: unknown media type"

let check_mac m = if String.length m <> 6 then invalid_arg "Tlv: MAC must be 6 bytes"

let buf_u16 b v =
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xFF));
  Buffer.add_char b (Char.chr (v land 0xFF))

let value_bytes = function
  | End_of_message -> ""
  | Al_mac_address m | Mac_address m ->
    check_mac m;
    m
  | Device_information (al, ifaces) ->
    check_mac al;
    let b = Buffer.create 32 in
    Buffer.add_string b al;
    Buffer.add_char b (Char.chr (List.length ifaces));
    List.iter
      (fun i ->
        check_mac i.mac;
        Buffer.add_string b i.mac;
        buf_u16 b (media_code i.media))
      ifaces;
    Buffer.contents b
  | Link_metric lm ->
    check_mac lm.local_mac;
    check_mac lm.remote_mac;
    if (not (Float.is_finite lm.capacity_mbps)) || lm.capacity_mbps < 0.0 then
      invalid_arg "Tlv: bad capacity";
    let b = Buffer.create 16 in
    Buffer.add_string b lm.local_mac;
    Buffer.add_string b lm.remote_mac;
    (* Capacity in units of 0.01 Mbps, 4 bytes. *)
    let units = min 0xFFFFFFFF (int_of_float (Float.round (lm.capacity_mbps *. 100.0))) in
    buf_u16 b ((units lsr 16) land 0xFFFF);
    buf_u16 b (units land 0xFFFF);
    Buffer.contents b
  | Unknown (_, v) -> v

let type_code = function
  | End_of_message -> t_end
  | Al_mac_address _ -> t_al_mac
  | Mac_address _ -> t_mac
  | Device_information _ -> t_device_info
  | Link_metric _ -> t_link_metric
  | Unknown (ty, _) ->
    if ty < 0 || ty > 0xFF then invalid_arg "Tlv: bad type";
    ty

let encode t =
  let v = value_bytes t in
  let n = String.length v in
  if n > 0xFFFF then invalid_arg "Tlv: value too long";
  let b = Bytes.create (3 + n) in
  Bytes.set b 0 (Char.chr (type_code t));
  Bytes.set b 1 (Char.chr ((n lsr 8) land 0xFF));
  Bytes.set b 2 (Char.chr (n land 0xFF));
  Bytes.blit_string v 0 b 3 n;
  b

let get_u16 s off =
  (Char.code (Bytes.get s off) lsl 8) lor Char.code (Bytes.get s (off + 1))

let decode b ~pos =
  if pos + 3 > Bytes.length b then invalid_arg "Tlv.decode: truncated header";
  let ty = Char.code (Bytes.get b pos) in
  let len = get_u16 b (pos + 1) in
  if pos + 3 + len > Bytes.length b then invalid_arg "Tlv.decode: truncated value";
  let v = Bytes.sub_string b (pos + 3) len in
  let next = pos + 3 + len in
  let tlv =
    if ty = t_end then begin
      if len <> 0 then invalid_arg "Tlv.decode: end-of-message with payload";
      End_of_message
    end
    else if ty = t_al_mac then begin
      if len <> 6 then invalid_arg "Tlv.decode: bad AL MAC length";
      Al_mac_address v
    end
    else if ty = t_mac then begin
      if len <> 6 then invalid_arg "Tlv.decode: bad MAC length";
      Mac_address v
    end
    else if ty = t_device_info then begin
      if len < 7 then invalid_arg "Tlv.decode: device info too short";
      let al = String.sub v 0 6 in
      let count = Char.code v.[6] in
      if len <> 7 + (count * 8) then invalid_arg "Tlv.decode: device info length";
      let ifaces =
        List.init count (fun i ->
            let off = 7 + (i * 8) in
            {
              mac = String.sub v off 6;
              media =
                media_of_code
                  ((Char.code v.[off + 6] lsl 8) lor Char.code v.[off + 7]);
            })
      in
      Device_information (al, ifaces)
    end
    else if ty = t_link_metric then begin
      if len <> 16 then invalid_arg "Tlv.decode: link metric length";
      let units =
        (Char.code v.[12] lsl 24) lor (Char.code v.[13] lsl 16)
        lor (Char.code v.[14] lsl 8) lor Char.code v.[15]
      in
      Link_metric
        {
          local_mac = String.sub v 0 6;
          remote_mac = String.sub v 6 6;
          capacity_mbps = float_of_int units /. 100.0;
        }
    end
    else Unknown (ty, v)
  in
  (tlv, next)

let encode_all tlvs =
  let b = Buffer.create 64 in
  List.iter
    (fun t ->
      if t = End_of_message then invalid_arg "Tlv.encode_all: explicit end TLV";
      Buffer.add_bytes b (encode t))
    tlvs;
  Buffer.add_bytes b (encode End_of_message);
  Buffer.to_bytes b

let decode_all b ~pos =
  let rec go pos acc =
    let tlv, next = decode b ~pos in
    match tlv with
    | End_of_message -> List.rev acc
    | _ -> go next (tlv :: acc)
  in
  go pos []

let mac_of_node ~node ~tech =
  if node < 0 || node > 0xFFFF || tech < 0 || tech > 0xFF then
    invalid_arg "Tlv.mac_of_node";
  let s = Bytes.create 6 in
  Bytes.set s 0 '\x02';
  Bytes.set s 1 '\x19';
  Bytes.set s 2 '\x05';
  Bytes.set s 3 (Char.chr tech);
  Bytes.set s 4 (Char.chr ((node lsr 8) land 0xFF));
  Bytes.set s 5 (Char.chr (node land 0xFF));
  Bytes.to_string s
