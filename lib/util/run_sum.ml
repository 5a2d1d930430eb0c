(* Why a jump is exact. Let the running sum a be positive and normal,
   in the binade [p, 2p) with p = 2^e and grid step u = 2^(e-52), let
   x > 0 and s = fl(a + x) < 2p. Every float of [p, 2p] is a multiple
   of u, so s is the multiple of u nearest a + x and d = s - a obeys
   |x - d| <= u/2; d is exact (Sterbenz: a <= s < 2a), and so is
   x - d. If |x - d| <> u/2, then for any multiple b of u with s <= b
   and b + d <= 2p - u, the exact b + x lies strictly within u/2 of
   b + d, inside [p, 2p), so fl(b + x) = b + d. Hence the next
   k = floor((2p - u - s) / d) additions give s + d, s + 2d, ..., s + kd.
   (2p - u - s) and d are multiples of u below 2^52 u, so their float
   quotient truncates to that floor exactly, and kd and s + kd are
   exact multiples of u below 2p.

   In the lowest normal binade u = 2^-1074, u/2 rounds to 0 and no float
   x is a tie; |x - d| = 0 there only skips a jump. *)

(* Plain additions at the start of a run, where the sum changes binade
   every few terms and a jump saves little. *)
let head = 32

(* 2^e for a positive normal [a] in [2^e, 2^(e+1)). *)
let[@inline] binade a =
  Int64.float_of_bits (Int64.logand (Int64.bits_of_float a) 0x7FF0_0000_0000_0000L)

(* [a +. x], [n] times, left to right. Inlined into [add], so no float
   is boxed. *)
let[@inline] add_repeated a x n =
  if n <= 0 then a
  else begin
    let s = a +. x in
    (* s = a as floats (+0 = -0): fl(s + x) is s bit for bit, so every
       later addition gives s. *)
    if s = a then s
    else begin
      let h = Int.min n head in
      let a = ref s in
      for _ = 2 to h do
        a := !a +. x
      done;
      let m = ref (n - h) in
      if !m > 0 && x > 0.0 && !a >= Float.min_float then begin
        (* The sum only grows; [p] is the binade of [!a]. *)
        let p = ref (binade !a) in
        while !m > 0 do
          let prev = !a in
          let s = prev +. x in
          a := s;
          decr m;
          if s = prev then m := 0
          else if s < !p +. !p then begin
            let u = !p *. epsilon_float and d = s -. prev in
            if Float.abs (x -. d) <> 0.5 *. u then begin
              let k = Int.min !m (int_of_float ((!p +. !p -. u -. s) /. d)) in
              a := s +. (float_of_int k *. d);
              m := !m - k
            end
          end
          else if s < Float.infinity then
            while !p +. !p <= s do
              p := !p +. !p
            done
        done
      end
      else
        for _ = 1 to !m do
          a := !a +. x
        done;
      !a
    end
  end

let add values runs acc k =
  let a = ref acc.(k) in
  for j = 0 to (Array.length runs / 2) - 1 do
    a := add_repeated !a values.(runs.(2 * j)) runs.((2 * j) + 1)
  done;
  acc.(k) <- !a
