type 'a event =
  | Deliver of int * 'a
  | Lost of int

module Int_map = Map.Make (Int)

type 'a t = {
  mutable buffer : 'a Int_map.t;
  mutable next_seq : int;
  highest : int array;  (* highest seq received per route; -1 initially *)
  declare_losses : bool;
}

let create ?(declare_losses = true) ~n_routes () =
  if n_routes < 1 then invalid_arg "Reorder.create: n_routes < 1";
  {
    buffer = Int_map.empty;
    next_seq = 0;
    highest = Array.make n_routes (-1);
    declare_losses;
  }

let pending t = Int_map.cardinal t.buffer

let next_expected t = t.next_seq

(* Every route has moved past [s]: nothing older can still arrive. *)
let rec past_all h i s =
  i >= Array.length h || (h.(i) > s && past_all h (i + 1) s)

(* Release everything in order from the buffer, declaring losses for
   gaps that can no longer be filled. *)
let drain_cb t ~deliver ~lost =
  let progress = ref true in
  while !progress do
    progress := false;
    match Int_map.find_opt t.next_seq t.buffer with
    | Some payload ->
      deliver t.next_seq payload;
      t.buffer <- Int_map.remove t.next_seq t.buffer;
      t.next_seq <- t.next_seq + 1;
      progress := true
    | None ->
      if t.declare_losses && past_all t.highest 0 t.next_seq then begin
        lost t.next_seq;
        t.next_seq <- t.next_seq + 1;
        progress := true
      end
  done

(* The steady-state case — the arriving seq is the expected one and
   the buffer is empty — never touches the map. *)
let push_cb t ~route ~seq payload ~deliver ~lost =
  if route < 0 || route >= Array.length t.highest then
    invalid_arg "Reorder.push: bad route";
  if seq < 0 then invalid_arg "Reorder.push: negative seq";
  if seq > t.highest.(route) then t.highest.(route) <- seq;
  if seq = t.next_seq && Int_map.is_empty t.buffer then begin
    deliver seq payload;
    t.next_seq <- seq + 1
    (* The drain below covers gaps the new highest may have just made
       undeliverable. *)
  end
  else if not (seq < t.next_seq || Int_map.mem seq t.buffer) then
    t.buffer <- Int_map.add seq payload t.buffer;
  drain_cb t ~deliver ~lost

let push t ~route ~seq payload =
  let events = ref [] in
  push_cb t ~route ~seq payload
    ~deliver:(fun s p -> events := Deliver (s, p) :: !events)
    ~lost:(fun s -> events := Lost s :: !events);
  List.rev !events

module Equalizer = struct
  type t = {
    delays : float array;    (* EWMA one-way delay per route *)
    observed : bool array;
  }

  let ewma_weight = 0.1

  let create ~n_routes =
    { delays = Array.make n_routes 0.0; observed = Array.make n_routes false }

  let observe t ~route ~delay =
    if t.observed.(route) then
      t.delays.(route) <-
        ((1.0 -. ewma_weight) *. t.delays.(route)) +. (ewma_weight *. delay)
    else begin
      t.delays.(route) <- delay;
      t.observed.(route) <- true
    end

  let estimated_delay t ~route = t.delays.(route)

  let release_delay t ~route =
    let slowest = Array.fold_left Float.max 0.0 t.delays in
    Float.max 0.0 (slowest -. t.delays.(route))
end
