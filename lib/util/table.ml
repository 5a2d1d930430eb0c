let fmt_float v =
  if Float.is_integer v && Float.abs v < 1e9 then Printf.sprintf "%.0f" v
  else if Float.abs v >= 100.0 then Printf.sprintf "%.0f" v
  else if Float.abs v >= 1.0 then Printf.sprintf "%.2f" v
  else Printf.sprintf "%.3f" v

let pad width s =
  let n = String.length s in
  if n >= width then s else s ^ String.make (width - n) ' '

let print_table ~header ~rows =
  let ncols = List.length header in
  let normalize row =
    let len = List.length row in
    if len >= ncols then row else row @ List.init (ncols - len) (fun _ -> "")
  in
  let rows = List.map normalize rows in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun acc row -> max acc (String.length (List.nth row i)))
          (String.length h) rows)
      header
  in
  let print_row cells =
    let padded = List.map2 (fun w c -> pad w c) widths cells in
    print_endline (String.concat "  " padded)
  in
  print_row header;
  print_endline
    (String.concat "  " (List.map (fun w -> String.make w '-') widths));
  List.iter print_row rows

let linear_grid ~lo ~hi ~n =
  assert (n >= 2);
  List.init n (fun i ->
      lo +. ((hi -. lo) *. float_of_int i /. float_of_int (n - 1)))

let log_grid ~lo ~hi ~n =
  assert (n >= 2 && lo > 0.0 && hi > 0.0);
  let llo = log lo and lhi = log hi in
  List.init n (fun i ->
      exp (llo +. ((lhi -. llo) *. float_of_int i /. float_of_int (n - 1))))

let print_cdf_grid ~title ~xlabel ~grid ~series =
  print_endline title;
  let header = xlabel :: List.map fst series in
  let rows =
    List.map
      (fun x ->
        fmt_float x
        :: List.map (fun (_, ecdf) -> fmt_float (Stats.Ecdf.eval ecdf x)) series)
      grid
  in
  print_table ~header ~rows
