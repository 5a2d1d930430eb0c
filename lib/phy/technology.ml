type medium = Wifi of int | Plc

type t = {
  index : int;
  medium : medium;
  name : string;
  conn_radius_m : float;
  max_capacity_mbps : float;
}

let wifi ~index ~channel =
  {
    index;
    medium = Wifi channel;
    name = Printf.sprintf "wifi%d" channel;
    conn_radius_m = 35.0;
    max_capacity_mbps = 100.0;
  }

let plc ~index =
  {
    index;
    medium = Plc;
    name = "plc";
    conn_radius_m = 50.0;
    max_capacity_mbps = 100.0;
  }

let is_plc t = t.medium = Plc

let is_wifi t = match t.medium with Wifi _ -> true | Plc -> false

let hybrid () = [ wifi ~index:0 ~channel:1; plc ~index:1 ]

let single_wifi () = [ wifi ~index:0 ~channel:1 ]

let multi_wifi () = [ wifi ~index:0 ~channel:1; wifi ~index:1 ~channel:2 ]
