type route_report = {
  route : int;
  qr : float;
  highest_seq : int;
  bytes : int;
  marked : int;
}

type t = {
  flow : int;
  sent_at : float;
  reports : route_report list;
}

type collector = {
  flow : int;
  qr : float array;
  highest : int array;
  window_bytes : int array;
  marked_bytes : int array;
}

let collector ~flow ~n_routes =
  {
    flow;
    qr = Array.make n_routes 0.0;
    highest = Array.make n_routes (-1);
    window_bytes = Array.make n_routes 0;
    marked_bytes = Array.make n_routes 0;
  }

let on_packet ~ce c ~route ~qr ~seq ~bytes =
  c.qr.(route) <- qr.(0);
  if seq > c.highest.(route) then c.highest.(route) <- seq;
  c.window_bytes.(route) <- c.window_bytes.(route) + bytes;
  if ce then c.marked_bytes.(route) <- c.marked_bytes.(route) + bytes

let emit c ~now =
  let reports =
    List.init (Array.length c.qr) (fun r ->
        {
          route = r;
          qr = c.qr.(r);
          highest_seq = c.highest.(r);
          bytes = c.window_bytes.(r);
          marked = c.marked_bytes.(r);
        })
  in
  Array.fill c.window_bytes 0 (Array.length c.window_bytes) 0;
  Array.fill c.marked_bytes 0 (Array.length c.marked_bytes) 0;
  { flow = c.flow; sent_at = now; reports }
