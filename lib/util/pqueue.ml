(* Parallel-array binary min-heap.

   Priorities live in a bare [float array] (unboxed storage), sequence
   numbers in an [int array] and payloads in an ['a array], so a [push]
   allocates nothing beyond occasional geometric regrowth: no per-entry
   record and no boxed priority.  [vals] stays [[||]] until the first
   push supplies a filler element, because a polymorphic array cannot be
   pre-sized without a witness value. *)

type 'a t = {
  mutable prios : float array;
  mutable seqs : int array;
  mutable vals : 'a array; (* [[||]] until first push; then same length as prios *)
  mutable len : int;
  mutable next_seq : int;
}

let default_capacity = 16

let create ?(capacity = default_capacity) () =
  let capacity = if capacity < 1 then 1 else capacity in
  {
    prios = Array.make capacity infinity;
    seqs = Array.make capacity 0;
    vals = [||];
    len = 0;
    next_seq = 0;
  }

let is_empty t = t.len = 0

let size t = t.len

let capacity t = Array.length t.prios

(* Keep the backing arrays so a heap that is cleared and refilled (the
   per-run event queue) never regrows from scratch. *)
let clear t = t.len <- 0

(* Entry ordering: priority first, then insertion sequence for FIFO ties. *)
let lt t i j =
  t.prios.(i) < t.prios.(j)
  || (t.prios.(i) = t.prios.(j) && t.seqs.(i) < t.seqs.(j))

let swap t i j =
  let p = t.prios.(i) in
  t.prios.(i) <- t.prios.(j);
  t.prios.(j) <- p;
  let s = t.seqs.(i) in
  t.seqs.(i) <- t.seqs.(j);
  t.seqs.(j) <- s;
  let v = t.vals.(i) in
  t.vals.(i) <- t.vals.(j);
  t.vals.(j) <- v

let grow t =
  let cap = Array.length t.prios in
  let ncap = cap * 2 in
  let nprios = Array.make ncap infinity in
  Array.blit t.prios 0 nprios 0 t.len;
  t.prios <- nprios;
  let nseqs = Array.make ncap 0 in
  Array.blit t.seqs 0 nseqs 0 t.len;
  t.seqs <- nseqs;
  (* len = cap >= 1 here, so vals is non-empty and vals.(0) is a valid
     filler. *)
  let nvals = Array.make ncap t.vals.(0) in
  Array.blit t.vals 0 nvals 0 t.len;
  t.vals <- nvals

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if lt t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 in
  let r = l + 1 in
  let s = if l < t.len && lt t l i then l else i in
  let s = if r < t.len && lt t r s then r else s in
  if s <> i then begin
    swap t i s;
    sift_down t s
  end

(* Inlined into [push], so a heap numbering its own entries pays no
   extra call. *)
let[@inline] push_seq t prio ~seq value =
  if Array.length t.vals = 0 then
    t.vals <- Array.make (Array.length t.prios) value;
  if t.len = Array.length t.prios then grow t;
  let i = t.len in
  t.prios.(i) <- prio;
  t.seqs.(i) <- seq;
  t.vals.(i) <- value;
  t.len <- t.len + 1;
  sift_up t i

let push t prio value =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  push_seq t prio ~seq value

let top_prio t =
  if t.len = 0 then invalid_arg "Pqueue.top_prio: empty heap";
  t.prios.(0)

let top t =
  if t.len = 0 then invalid_arg "Pqueue.top: empty heap";
  t.vals.(0)

let top_seq t =
  if t.len = 0 then invalid_arg "Pqueue.top_seq: empty heap";
  t.seqs.(0)

let drop t =
  if t.len = 0 then invalid_arg "Pqueue.drop: empty heap";
  t.len <- t.len - 1;
  if t.len > 0 then begin
    t.prios.(0) <- t.prios.(t.len);
    t.seqs.(0) <- t.seqs.(t.len);
    t.vals.(0) <- t.vals.(t.len);
    sift_down t 0
  end

let pop t =
  if t.len = 0 then None
  else begin
    let prio = t.prios.(0) and v = t.vals.(0) in
    drop t;
    Some (prio, v)
  end

let peek t = if t.len = 0 then None else Some (t.prios.(0), t.vals.(0))

let drop_push t prio value =
  if t.len = 0 then push t prio value
  else begin
    t.prios.(0) <- prio;
    t.seqs.(0) <- t.next_seq;
    t.next_seq <- t.next_seq + 1;
    t.vals.(0) <- value;
    sift_down t 0
  end

let pop_push t prio value =
  if t.len = 0 then begin
    push t prio value;
    None
  end
  else begin
    let p0 = t.prios.(0) and v0 = t.vals.(0) in
    drop_push t prio value;
    Some (p0, v0)
  end
