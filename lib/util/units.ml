let mbps_to_bytes_per_s mbps = mbps *. 1e6 /. 8.0

let bytes_per_s_to_mbps bps = bps *. 8.0 /. 1e6

let bytes_to_mbit bytes = bytes *. 8.0 /. 1e6

let mbit_to_bytes mbit = mbit *. 1e6 /. 8.0

let tx_time ~capacity_mbps ~bytes =
  assert (capacity_mbps > 0.0);
  float_of_int bytes /. mbps_to_bytes_per_s capacity_mbps

let kib n = n * 1024

let mib n = n * 1024 * 1024
