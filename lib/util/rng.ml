(* SplitMix64 on two native-int 32-bit halves.

   The state and every intermediate live in immediate native ints (the
   64-bit word is carried as [hi]/[lo] 32-bit halves), so drawing
   allocates nothing: the historical [int64]-based implementation boxed
   the state plus every add/xor/mul intermediate, which dominated the
   simulator's per-frame allocation (route draw + collision draw per
   frame). The arithmetic below reproduces Int64 semantics bit-for-bit
   — wrap-around 64-bit add and multiply via 16/32-bit limbs — and the
   equivalence is pinned by a QCheck property against a reference
   Int64 implementation in the test suite, plus every golden trace. *)

type t = {
  mutable hi : int;
  mutable lo : int;
  (* Scratch halves for the current draw: [advance] leaves the
     scrambled result here so no step returns a tuple — a tuple per
     draw (three, with the scramble steps) was the generator's entire
     allocation footprint. All-int record, so the writes are plain
     stores; the scratch is per-instance, keeping parallel domains
     race-free. *)
  mutable shi : int;
  mutable slo : int;
}
(* Invariant: 0 <= hi, lo < 2^32. *)

let mask32 = 0xFFFFFFFF

(* golden gamma 0x9E3779B97F4A7C15 *)
let gamma_hi = 0x9E3779B9
let gamma_lo = 0x7F4A7C15

(* mix constants 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB *)
let c1_hi = 0xBF58476D
let c1_lo = 0x1CE4E5B9
let c2_hi = 0x94D049BB
let c2_lo = 0x133111EB

let create seed =
  { hi = (seed asr 32) land mask32; lo = seed land mask32; shi = 0; slo = 0 }

let copy t = { hi = t.hi; lo = t.lo; shi = 0; slo = 0 }

(* (a * b) mod 2^32 for 32-bit a, b: split a into 16-bit limbs so no
   intermediate product exceeds 2^48. *)
let mul32_low a b =
  (((a land 0xFFFF) * b) + ((((a lsr 16) * b) land 0xFFFF) lsl 16)) land mask32

(* Full 64-bit product (mod 2^64) of (ahi:alo) and (bhi:blo), returned
   through [res] as hi/lo halves. 16-bit limbs of the low halves give
   the exact 64-bit product of alo*blo; the cross terms only feed the
   high word, so mod-2^32 products suffice there. *)
let scramble_into t hi lo chi clo =
  (* z * c where z = hi:lo, c = chi:clo; result lands in shi:slo *)
  let a0 = lo land 0xFFFF and a1 = lo lsr 16 in
  let b0 = clo land 0xFFFF and b1 = clo lsr 16 in
  let p00 = a0 * b0 in
  let p01 = a0 * b1 in
  let p10 = a1 * b0 in
  let p11 = a1 * b1 in
  let mid = (p00 lsr 16) + (p01 land 0xFFFF) + (p10 land 0xFFFF) in
  let lo' = ((mid land 0xFFFF) lsl 16) lor (p00 land 0xFFFF) in
  let carry = (mid lsr 16) + (p01 lsr 16) + (p10 lsr 16) + p11 in
  let hi' = (carry + mul32_low lo chi + mul32_low hi clo) land mask32 in
  t.shi <- hi';
  t.slo <- lo'

(* Advance the state by the golden gamma and scramble (SplitMix64):
   the raw 64-bit draw is left in [shi]/[slo]. *)
let advance t =
  (* state <- state + gamma (mod 2^64) *)
  let lo_sum = t.lo + gamma_lo in
  let lo = lo_sum land mask32 in
  let hi = (t.hi + gamma_hi + (lo_sum lsr 32)) land mask32 in
  t.hi <- hi;
  t.lo <- lo;
  (* z ^= z >>> 30; z *= c1 *)
  let zhi = hi lxor (hi lsr 30) in
  let zlo = lo lxor (((hi lsl 2) land mask32) lor (lo lsr 30)) in
  scramble_into t zhi zlo c1_hi c1_lo;
  (* z ^= z >>> 27; z *= c2 *)
  let zhi' = t.shi lxor (t.shi lsr 27) in
  let zlo' = t.slo lxor (((t.shi lsl 5) land mask32) lor (t.slo lsr 27)) in
  scramble_into t zhi' zlo' c2_hi c2_lo;
  (* z ^= z >>> 31 *)
  let rhi = t.shi lxor (t.shi lsr 31) in
  let rlo = t.slo lxor (((t.shi lsl 1) land mask32) lor (t.slo lsr 31)) in
  t.shi <- rhi;
  t.slo <- rlo

let int64 t =
  advance t;
  Int64.logor (Int64.shift_left (Int64.of_int t.shi) 32) (Int64.of_int t.slo)

let split t =
  advance t;
  { hi = t.shi; lo = t.slo; shi = 0; slo = 0 }

(* Not inlined into [float]: kept small, [float] is itself inlined
   into [uniform], [gaussian] and [exponential], which then box no
   intermediate draw. *)
let bits53 t =
  advance t;
  (t.shi lsl 21) lor (t.slo lsr 11)

let float t =
  (* Top 53 bits of the draw give a uniform double in [0,1): exactly
     [Int64.to_float (z >>> 11) * 2^-53] of the historical code — the
     53-bit value is nonnegative and fits a native int, so the
     int-to-float conversion is exact either way. *)
  float_of_int (bits53 t) *. 0x1p-53

let uniform t lo hi =
  assert (lo <= hi);
  lo +. ((hi -. lo) *. float t)

let int t n =
  assert (n > 0);
  (* Keep 62 bits so the value stays non-negative in OCaml's 63-bit
     native int; modulo bias is negligible for our n << 2^62. *)
  advance t;
  ((t.shi lsl 30) lor (t.slo lsr 2)) mod n

let bool t =
  advance t;
  t.slo land 1 = 1

let gaussian t ~mean ~std =
  let rec draw () =
    let u1 = float t in
    if u1 <= 1e-300 then draw ()
    else
      let u2 = float t in
      mean +. (std *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))
  in
  draw ()

let exponential t ~rate =
  assert (rate > 0.0);
  let rec draw () =
    let u = float t in
    if u <= 1e-300 then draw () else -.log u /. rate
  in
  draw ()

let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample_without_replacement t k n =
  assert (k <= n);
  let arr = Array.init n (fun i -> i) in
  shuffle t arr;
  Array.to_list (Array.sub arr 0 k)
