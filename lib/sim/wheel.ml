(* Timing-wheel event scheduler: a calendar queue over fixed-width
   time buckets with a binary-heap overflow level for far timers.

   The simulator's workload is strongly periodic — per-frame service
   times of a few hundred microseconds and 100 ms control ticks — so
   almost every push lands within a quarter second of the cursor and
   costs O(1) (append to a bucket), and almost every pop scans a
   handful of occupied slots near the cursor. Far timers (flow stops,
   fault-plan boundaries enqueued at bootstrap) overflow into a
   [Pqueue] and migrate into the wheel when the cursor approaches.

   Ordering contract (identical to [Pqueue], byte-for-byte on all
   goldens): minimum float priority first, ties broken FIFO by a
   global insertion sequence number. Entries carry their original
   sequence number through overflow and migration, and the in-bucket
   minimum is selected by exact (priority, seq) comparison, so the pop
   sequence is provably the heap's. A QCheck property in the test
   suite drives both structures through arbitrary interleavings and
   compares pop sequences.

   Geometry: bucket width 2^-12 s (~244 us, a power of two so
   [prio * inv_width] is exact) and 1024 buckets, for a ~250 ms
   horizon that covers the control period. Priorities must be finite,
   non-negative and below ~1e12 s (int conversion of prio/width).

   Invariants:
   - every wheel entry's virtual bucket index lies in
     [cursor, cursor + n_buckets), so physical slot [b land mask] is
     unambiguous;
   - after [migrate], every overflow priority is >= the horizon
     [(cursor + n) * width], hence greater than any wheel entry;
   - the cursor only advances, and never past a non-empty bucket.

   A push whose bucket would fall behind the cursor (a priority equal
   to or barely above the event being handled, after the cursor
   already advanced to a later minimum) is clamped into the cursor
   bucket; the exact in-bucket comparison still finds it first, so
   clamping cannot reorder pops. *)

let n_buckets = 1024
let mask = n_buckets - 1
let width = 1.0 /. 4096.0
let inv_width = 4096.0

type 'a t = {
  counts : int array; (* live entries per physical slot *)
  mutable prios : float array array; (* per-slot parallel arrays *)
  mutable seqs : int array array;
  mutable vals : 'a array array;
  mutable cursor : int; (* virtual bucket index, monotone *)
  mutable next_seq : int; (* global FIFO tie-break counter *)
  mutable size : int; (* wheel + overflow *)
  mutable wheel_count : int; (* wheel only *)
  overflow : 'a Pqueue.t; (* entries keep their wheel seq as tie-break *)
  (* The overflow minimum's priority (infinity when the overflow is
     empty), kept here so the test [migrate] makes on every pop reads
     a plain float instead of [Pqueue.top_prio]'s boxed result. *)
  ov_min : float array;
  (* Cached minimum located by the last scan: physical slot + index
     within the bucket, priority mirrored in a float array so reads
     and writes stay unboxed (the event loop reads the same cell, see
     [min_prio_cell]). Invalidated by [drop], updated in place by a
     [push] that beats it. *)
  mutable c_valid : bool;
  mutable c_slot : int;
  mutable c_idx : int;
  c_prio : float array;
  mutable c_seq : int;
  (* The priority [push] and [drop_push] insert at, written by the
     caller (see [push_prio_cell]): a float argument would be boxed. *)
  p_prio : float array;
}

let create ?(capacity = 16) () =
  {
    counts = Array.make n_buckets 0;
    prios = Array.make n_buckets [||];
    seqs = Array.make n_buckets [||];
    vals = Array.make n_buckets [||];
    cursor = 0;
    next_seq = 0;
    size = 0;
    wheel_count = 0;
    overflow = Pqueue.create ~capacity ();
    ov_min = Array.make 1 infinity;
    c_valid = false;
    c_slot = 0;
    c_idx = 0;
    c_prio = Array.make 1 0.0;
    c_seq = 0;
    p_prio = Array.make 1 0.0;
  }

let is_empty t = t.size = 0
let size t = t.size

let[@inline] horizon t = float_of_int (t.cursor + n_buckets) *. width

(* Append (prio, seq, v) to the bucket for [prio] (clamped to the
   cursor bucket), growing the slot's parallel arrays geometrically.
   The arrays persist across drops, so a slot allocates at most
   log(peak) times over the whole run. Inlined into its callers, so
   the priority they read from a float cell stays unboxed. *)
let[@inline] bucket_insert t prio seq v =
  let b =
    let b = int_of_float (prio *. inv_width) in
    if b < t.cursor then t.cursor else b
  in
  let slot = b land mask in
  let n = t.counts.(slot) in
  let cap = Array.length t.prios.(slot) in
  if n = cap then begin
    let cap' = if cap = 0 then 8 else 2 * cap in
    let prios' = Array.make cap' 0.0 in
    let seqs' = Array.make cap' 0 in
    let vals' = Array.make cap' v in
    Array.blit t.prios.(slot) 0 prios' 0 n;
    Array.blit t.seqs.(slot) 0 seqs' 0 n;
    Array.blit t.vals.(slot) 0 vals' 0 n;
    t.prios.(slot) <- prios';
    t.seqs.(slot) <- seqs';
    t.vals.(slot) <- vals'
  end;
  t.prios.(slot).(n) <- prio;
  t.seqs.(slot).(n) <- seq;
  t.vals.(slot).(n) <- v;
  t.counts.(slot) <- n + 1;
  t.wheel_count <- t.wheel_count + 1;
  (* A fresh entry beats the cached minimum only on strictly smaller
     priority: its sequence number is the largest so far, so it loses
     every tie. *)
  if t.c_valid && prio < t.c_prio.(0) then begin
    t.c_slot <- slot;
    t.c_idx <- n;
    t.c_prio.(0) <- prio;
    t.c_seq <- seq
  end

let push_prio_cell t = t.p_prio

let push t v =
  let prio = t.p_prio.(0) in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.size <- t.size + 1;
  if prio < horizon t then bucket_insert t prio seq v
  else begin
    Pqueue.push_seq t.overflow prio ~seq v;
    if prio < t.ov_min.(0) then t.ov_min.(0) <- prio
  end

(* Move every overflow entry now below the horizon into its bucket.
   Afterwards the overflow minimum (if any) exceeds every wheel entry,
   so scanning the wheel alone yields the global minimum. *)
let migrate t =
  let h = horizon t in
  while t.ov_min.(0) < h do
    let prio = t.ov_min.(0) in
    let seq = Pqueue.top_seq t.overflow and v = Pqueue.top t.overflow in
    Pqueue.drop t.overflow;
    t.ov_min.(0) <-
      (if Pqueue.is_empty t.overflow then infinity else Pqueue.top_prio t.overflow);
    bucket_insert t prio seq v
  done

(* Locate the minimum entry and cache its position. Precondition:
   [t.size > 0]. *)
let find_min t =
  if t.wheel_count = 0 then begin
    (* Everything lives in the overflow: fast-forward the cursor to
       the overflow minimum's bucket so migration is guaranteed to
       move at least that entry in. *)
    let b = int_of_float (t.ov_min.(0) *. inv_width) in
    if b > t.cursor then t.cursor <- b
  end;
  migrate t;
  (* Scan to the first non-empty bucket (the cursor never passes a
     non-empty one, so each empty bucket is skipped once per
     rotation), then select the exact (prio, seq) minimum inside. *)
  let b = ref t.cursor in
  while t.counts.(!b land mask) = 0 do
    incr b
  done;
  t.cursor <- !b;
  let slot = !b land mask in
  let prios = t.prios.(slot) and seqs = t.seqs.(slot) in
  let n = t.counts.(slot) in
  let best = ref 0 in
  let bp = ref prios.(0) and bs = ref seqs.(0) in
  for i = 1 to n - 1 do
    let p = prios.(i) in
    if p < !bp || (p = !bp && seqs.(i) < !bs) then begin
      best := i;
      bp := p;
      bs := seqs.(i)
    end
  done;
  t.c_valid <- true;
  t.c_slot <- slot;
  t.c_idx <- !best;
  t.c_prio.(0) <- !bp;
  t.c_seq <- !bs

let top t =
  if t.size = 0 then invalid_arg "Wheel.top: empty";
  if not t.c_valid then find_min t;
  t.vals.(t.c_slot).(t.c_idx)

let min_prio_cell t = t.c_prio

let drop t =
  if t.size = 0 then invalid_arg "Wheel.drop: empty";
  if not t.c_valid then find_min t;
  let slot = t.c_slot and idx = t.c_idx in
  let n = t.counts.(slot) - 1 in
  (* Swap-remove; the stale tail value is left in place (payloads are
     immediate ints on the hot path, so nothing is kept alive). *)
  if idx < n then begin
    t.prios.(slot).(idx) <- t.prios.(slot).(n);
    t.seqs.(slot).(idx) <- t.seqs.(slot).(n);
    t.vals.(slot).(idx) <- t.vals.(slot).(n)
  end;
  t.counts.(slot) <- n;
  t.wheel_count <- t.wheel_count - 1;
  t.size <- t.size - 1;
  t.c_valid <- false

let drop_push t v =
  if t.size = 0 then push t v
  else begin
    drop t;
    push t v
  end

let pop t =
  if t.size = 0 then None
  else begin
    if not t.c_valid then find_min t;
    let prio = t.c_prio.(0) in
    let v = t.vals.(t.c_slot).(t.c_idx) in
    drop t;
    Some (prio, v)
  end

let peek t =
  if t.size = 0 then None
  else begin
    if not t.c_valid then find_min t;
    Some (t.c_prio.(0), t.vals.(t.c_slot).(t.c_idx))
  end
