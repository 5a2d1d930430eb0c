type 'a event =
  | Deliver of int * 'a
  | Lost of int

(* Buffered packets live in a power-of-two ring: seq [s] sits at slot
   [s land (cap - 1)], and every buffered seq lies in
   [next_seq, next_seq + cap), so no two share a slot. [seqs] is the
   presence map: a slot holds a buffered packet when its stored seq is
   the one looked up, which is never below [next_seq]. The ring
   doubles when a packet lands past its window. A released slot keeps
   its seq and payload until a later packet overwrites them (as in
   [Fifo]: there is no witness value to reset the payload with). *)
type 'a t = {
  mutable slots : 'a array;  (* payload of the seq in [seqs] *)
  mutable seqs : int array;  (* seq last stored at each slot; -1 never *)
  mutable count : int;       (* buffered packets *)
  mutable next_seq : int;
  highest : int array;  (* highest seq received per route; -1 initially *)
  declare_losses : bool;
}

let create ?(declare_losses = true) ~n_routes () =
  if n_routes < 1 then invalid_arg "Reorder.create: n_routes < 1";
  {
    slots = [||];
    seqs = [||];
    count = 0;
    next_seq = 0;
    highest = Array.make n_routes (-1);
    declare_losses;
  }

let pending t = t.count

let next_expected t = t.next_seq

(* Every route has moved past [s]: nothing older can still arrive. *)
let rec past_all h i s =
  i >= Array.length h || (h.(i) > s && past_all h (i + 1) s)

(* Double the ring until [seq] falls in its window, re-placing every
   buffered packet by its stored seq. [witness] fills the new slots. *)
let grow t ~seq witness =
  let cap = Array.length t.seqs in
  let cap' = ref (if cap = 0 then 8 else 2 * cap) in
  while seq - t.next_seq >= !cap' do
    cap' := 2 * !cap'
  done;
  let mask = !cap' - 1 in
  let slots = Array.make !cap' witness and seqs = Array.make !cap' (-1) in
  for i = 0 to cap - 1 do
    let s = t.seqs.(i) in
    if s >= t.next_seq then begin
      slots.(s land mask) <- t.slots.(i);
      seqs.(s land mask) <- s
    end
  done;
  t.slots <- slots;
  t.seqs <- seqs

(* Release everything in order from the buffer, declaring losses for
   gaps that can no longer be filled. *)
let rec drain_cb t ~deliver ~lost =
  let s = t.next_seq in
  let i = s land (Array.length t.seqs - 1) in
  if t.count > 0 && t.seqs.(i) = s then begin
    deliver s t.slots.(i);
    t.count <- t.count - 1;
    t.next_seq <- s + 1;
    drain_cb t ~deliver ~lost
  end
  else if t.declare_losses && past_all t.highest 0 s then begin
    lost s;
    t.next_seq <- s + 1;
    drain_cb t ~deliver ~lost
  end

(* The steady-state case — the arriving seq is the expected one and
   the buffer is empty — never touches the ring. *)
let push_cb t ~route ~seq payload ~deliver ~lost =
  if route < 0 || route >= Array.length t.highest then
    invalid_arg "Reorder.push: bad route";
  if seq < 0 then invalid_arg "Reorder.push: negative seq";
  if seq > t.highest.(route) then t.highest.(route) <- seq;
  if seq = t.next_seq && t.count = 0 then begin
    deliver seq payload;
    t.next_seq <- seq + 1
    (* The drain below covers gaps the new highest may have just made
       undeliverable. *)
  end
  else if seq >= t.next_seq then begin
    if seq - t.next_seq >= Array.length t.seqs then grow t ~seq payload;
    let i = seq land (Array.length t.seqs - 1) in
    if t.seqs.(i) <> seq then begin
      t.slots.(i) <- payload;
      t.seqs.(i) <- seq;
      t.count <- t.count + 1
    end
  end;
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
