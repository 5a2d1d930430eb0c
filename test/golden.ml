(* Golden comparisons that say where a replay diverged. A golden is a
   whole JSON document on one line; on a mismatch, the failure names
   the first JSON member that differs (its path from the root, the
   golden value and the replayed value) instead of printing both
   documents. The verdict is byte equality, exactly as before. *)

module J = Obs.Json

(* Long subtrees are cut so a failure stays readable. *)
let render j =
  let s = J.to_string j in
  if String.length s <= 160 then s else String.sub s 0 157 ^ "..."

(* [(path, golden, replay)] at the first difference, in document
   order: members and elements are compared position by position
   before a length or key mismatch is reported. *)
let rec first_difference path a b =
  match (a, b) with
  | J.List xs, J.List ys -> in_list path 0 xs ys
  | J.Obj xs, J.Obj ys -> in_obj path xs ys
  | _ -> if a = b then None else Some (path, render a, render b)

and in_list path i xs ys =
  match (xs, ys) with
  | [], [] -> None
  | x :: xs, y :: ys -> (
    match first_difference (Printf.sprintf "%s[%d]" path i) x y with
    | None -> in_list path (i + 1) xs ys
    | d -> d)
  | _ ->
    let n l = Printf.sprintf "length %d" (i + List.length l) in
    Some (path, n xs, n ys)

and in_obj path xs ys =
  match (xs, ys) with
  | [], [] -> None
  | (k, x) :: xs, (k', y) :: ys when k = k' -> (
    match first_difference (path ^ "." ^ k) x y with
    | None -> in_obj path xs ys
    | d -> d)
  | (k, _) :: _, (k', _) :: _ ->
    Some (path, Printf.sprintf "member %S" k, Printf.sprintf "member %S" k')
  | (k, _) :: _, [] -> Some (path, Printf.sprintf "member %S" k, "no more members")
  | [], (k, _) :: _ -> Some (path, "no more members", Printf.sprintf "member %S" k)

(* Where two unequal strings part, when they do not parse or parse to
   equal documents. *)
let first_byte golden replay =
  let n = min (String.length golden) (String.length replay) in
  let i = ref 0 in
  while !i < n && golden.[!i] = replay.[!i] do
    incr i
  done;
  let around s =
    let lo = max 0 (!i - 40) in
    String.sub s lo (min (String.length s - lo) 80)
  in
  Printf.sprintf "first differing byte %d: golden ...%s... replay ...%s..." !i
    (around golden) (around replay)

let explain golden replay =
  match (J.parse golden, J.parse replay) with
  | Ok g, Ok r -> (
    match first_difference "$" g r with
    | Some (path, gv, rv) ->
      Printf.sprintf "first difference at %s: golden %s, replay %s" path gv rv
    | None -> "same JSON document, different bytes; " ^ first_byte golden replay)
  | Error m, _ -> Printf.sprintf "golden does not parse (%s); %s" m (first_byte golden replay)
  | _, Error m -> Printf.sprintf "replay does not parse (%s); %s" m (first_byte golden replay)

(* [check msg ~golden replay] passes iff the strings are equal byte
   for byte. *)
let check msg ~golden replay =
  if not (String.equal golden replay) then
    Alcotest.failf "%s: %s" msg (explain golden replay)
