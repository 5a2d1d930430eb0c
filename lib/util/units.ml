let mbps_to_bytes_per_s mbps = mbps *. 1e6 /. 8.0

let tx_time ~capacity_mbps ~bytes =
  assert (capacity_mbps > 0.0);
  float_of_int bytes /. mbps_to_bytes_per_s capacity_mbps
