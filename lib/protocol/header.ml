type t = {
  seq : int;
  qr : float;
  route : Route_codec.route;
}

let size = 20

let qr_scale = 1048576.0 (* 2^20 *)

let qr_resolution = 1.0 /. qr_scale

let qr_max = (4294967295.0 /. qr_scale)

let make ~seq ~qr ~route =
  if seq < 0 || seq > 0xFFFFFFFF then invalid_arg "Header.make: bad seq";
  if qr < 0.0 || not (Float.is_finite qr) then invalid_arg "Header.make: bad qr";
  if Array.length route > Route_codec.max_hops then
    invalid_arg "Header.make: route too long";
  Array.iter
    (fun h -> if h < 1 || h > 0xFFFF then invalid_arg "Header.make: bad route entry")
    route;
  { seq; qr; route }

let add_price t p =
  if p < 0.0 then invalid_arg "Header.add_price: negative price";
  { t with qr = Float.min qr_max (t.qr +. p) }

let put_u16 b off v =
  Bytes.set b off (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set b (off + 1) (Char.chr (v land 0xFF))

let get_u16 b off = (Char.code (Bytes.get b off) lsl 8) lor Char.code (Bytes.get b (off + 1))

let put_u32 b off v =
  put_u16 b off ((v lsr 16) land 0xFFFF);
  put_u16 b (off + 2) (v land 0xFFFF)

let get_u32 b off = (get_u16 b off lsl 16) lor get_u16 b (off + 2)

let encode t =
  let b = Bytes.make size '\000' in
  put_u32 b 0 t.seq;
  let qr_fixed =
    let v = Float.round (Float.min qr_max t.qr *. qr_scale) in
    int_of_float (Float.min v 4294967295.0)
  in
  put_u32 b 4 qr_fixed;
  Array.iteri (fun i h -> put_u16 b (8 + (2 * i)) h) t.route;
  b

let decode b =
  if Bytes.length b <> size then invalid_arg "Header.decode: expected 20 bytes";
  let seq = get_u32 b 0 in
  let qr = float_of_int (get_u32 b 4) /. qr_scale in
  let entries = Array.init Route_codec.max_hops (fun i -> get_u16 b (8 + (2 * i))) in
  (* Route = the non-zero prefix; zero padding must be a suffix. *)
  let len = ref 0 in
  let seen_zero = ref false in
  Array.iter
    (fun h ->
      if h = 0 then seen_zero := true
      else begin
        if !seen_zero then invalid_arg "Header.decode: malformed route padding";
        incr len
      end)
    entries;
  { seq; qr; route = Array.sub entries 0 !len }
