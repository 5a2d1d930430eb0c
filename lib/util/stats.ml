let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let variance xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
    let m = mean xs in
    let acc = List.fold_left (fun a x -> a +. ((x -. m) *. (x -. m))) 0.0 xs in
    acc /. float_of_int (List.length xs)

let stddev xs = sqrt (variance xs)

let minimum = function
  | [] -> invalid_arg "Stats.minimum: empty list"
  | x :: xs -> List.fold_left min x xs

let maximum = function
  | [] -> invalid_arg "Stats.maximum: empty list"
  | x :: xs -> List.fold_left max x xs

let percentile xs p =
  match xs with
  | [] -> invalid_arg "Stats.percentile: empty list"
  | _ ->
    let arr = Array.of_list xs in
    Array.sort compare arr;
    let n = Array.length arr in
    if n = 1 then arr.(0)
    else begin
      let p = Float.max 0.0 (Float.min 100.0 p) in
      let rank = p /. 100.0 *. float_of_int (n - 1) in
      let lo = int_of_float (floor rank) in
      let hi = int_of_float (ceil rank) in
      if lo = hi then arr.(lo)
      else begin
        let frac = rank -. float_of_int lo in
        (arr.(lo) *. (1.0 -. frac)) +. (arr.(hi) *. frac)
      end
    end

let median xs = percentile xs 50.0

module Ecdf = struct
  type t = { sorted : float array }

  let of_list xs =
    match xs with
    | [] -> invalid_arg "Ecdf.of_list: empty sample"
    | _ ->
      let sorted = Array.of_list xs in
      Array.sort compare sorted;
      { sorted }

  let size t = Array.length t.sorted

  (* Number of sample points <= x, by binary search for the upper bound. *)
  let count_le t x =
    let arr = t.sorted in
    let n = Array.length arr in
    let rec go lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if arr.(mid) <= x then go (mid + 1) hi else go lo mid
    in
    go 0 n

  let eval t x = float_of_int (count_le t x) /. float_of_int (size t)

  let support t = (t.sorted.(0), t.sorted.(size t - 1))
end

let fraction_below xs x =
  match xs with
  | [] -> 0.0
  | _ ->
    let below = List.length (List.filter (fun v -> v < x) xs) in
    float_of_int below /. float_of_int (List.length xs)

let fraction_at_least xs x =
  match xs with
  | [] -> 0.0
  | _ ->
    let ge = List.length (List.filter (fun v -> v >= x) xs) in
    float_of_int ge /. float_of_int (List.length xs)
