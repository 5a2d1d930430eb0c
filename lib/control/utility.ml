type t = {
  name : string;
  u : float -> float;
  u' : float -> float;
  u'_inv : float -> float;
}

let proportional_fair =
  {
    name = "log(1+x)";
    u = (fun x -> log (1.0 +. x));
    u' = (fun x -> 1.0 /. (1.0 +. x));
    u'_inv = (fun q -> if q <= 0.0 then infinity else Float.max 0.0 ((1.0 /. q) -. 1.0));
  }
