(* Tests for the utility layer: RNG determinism, statistics, the
   priority queue, units, and table formatting helpers. *)

let check_float ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.9f, got %.9f" msg expected actual

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "same stream" true (Rng.float a = Rng.float b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let xs = List.init 10 (fun _ -> Rng.float a) in
  let ys = List.init 10 (fun _ -> Rng.float b) in
  Alcotest.(check bool) "different seeds differ" true (xs <> ys)

let test_rng_float_range () =
  let rng = Rng.create 7 in
  for _ = 1 to 10000 do
    let x = Rng.float rng in
    if x < 0.0 || x >= 1.0 then Alcotest.failf "float out of [0,1): %f" x
  done

let test_rng_int_range () =
  let rng = Rng.create 9 in
  let counts = Array.make 7 0 in
  for _ = 1 to 7000 do
    let v = Rng.int rng 7 in
    if v < 0 || v >= 7 then Alcotest.failf "int out of range: %d" v;
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      if c < 700 then Alcotest.failf "bucket %d starved: %d" i c)
    counts

let test_rng_split_independent () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  let xs = List.init 20 (fun _ -> Rng.float a) in
  let ys = List.init 20 (fun _ -> Rng.float b) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_copy () =
  let a = Rng.create 11 in
  ignore (Rng.float a);
  let b = Rng.copy a in
  Alcotest.(check bool) "copy replays" true (Rng.float a = Rng.float b)

let test_rng_gaussian_moments () =
  let rng = Rng.create 3 in
  let n = 20000 in
  let xs = List.init n (fun _ -> Rng.gaussian rng ~mean:5.0 ~std:2.0) in
  check_float ~eps:0.1 "mean" 5.0 (Stats.mean xs);
  check_float ~eps:0.1 "std" 2.0 (Stats.stddev xs)

let test_rng_exponential_mean () =
  let rng = Rng.create 4 in
  let xs = List.init 20000 (fun _ -> Rng.exponential rng ~rate:2.0) in
  check_float ~eps:0.02 "mean 1/rate" 0.5 (Stats.mean xs)

let test_rng_sample_without_replacement () =
  let rng = Rng.create 8 in
  let s = Rng.sample_without_replacement rng 5 10 in
  Alcotest.(check int) "five values" 5 (List.length s);
  Alcotest.(check int) "distinct" 5 (List.length (List.sort_uniq compare s));
  List.iter (fun v -> Alcotest.(check bool) "in range" true (v >= 0 && v < 10)) s

let test_rng_shuffle_permutation () =
  let rng = Rng.create 12 in
  let arr = Array.init 20 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check bool) "is a permutation" true (sorted = Array.init 20 Fun.id)

let test_rng_split_uncorrelated () =
  (* The summary-level independence check: the parent stream and the
     split-off child must be (empirically) uncorrelated, and splitting
     twice must give two distinct children. *)
  let a = Rng.create 99 in
  let b = Rng.split a in
  let c = Rng.split a in
  let n = 5000 in
  let xs = Array.init n (fun _ -> Rng.float a) in
  let ys = Array.init n (fun _ -> Rng.float b) in
  let zs = Array.init n (fun _ -> Rng.float c) in
  let corr xs ys =
    let mx = Stats.mean (Array.to_list xs) and my = Stats.mean (Array.to_list ys) in
    let num = ref 0.0 and dx = ref 0.0 and dy = ref 0.0 in
    Array.iteri
      (fun i x ->
        let a = x -. mx and b = ys.(i) -. my in
        num := !num +. (a *. b);
        dx := !dx +. (a *. a);
        dy := !dy +. (b *. b))
      xs;
    !num /. sqrt (!dx *. !dy)
  in
  Alcotest.(check bool) "parent/child uncorrelated" true
    (Float.abs (corr xs ys) < 0.05);
  Alcotest.(check bool) "siblings uncorrelated" true
    (Float.abs (corr ys zs) < 0.05);
  Alcotest.(check bool) "siblings distinct" true (ys <> zs)

(* Reference SplitMix64 on boxed Int64, the semantics the native-int
   Rng must reproduce bit-for-bit. *)
module Rng_ref = struct
  type t = { mutable state : int64 }

  let golden_gamma = 0x9E3779B97F4A7C15L

  let create seed = { state = Int64.of_int seed }

  let next t =
    t.state <- Int64.add t.state golden_gamma;
    let z = t.state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let float t =
    Int64.to_float (Int64.shift_right_logical (next t) 11)
    *. (1.0 /. 9007199254740992.0)

  let int t n = Int64.to_int (Int64.shift_right_logical (next t) 2) mod n

  let bool t = Int64.logand (next t) 1L = 1L

  let split t = { state = next t }
end

let prop_rng_matches_int64_reference =
  (* Arbitrary op interleavings, including splits (both streams keep
     being compared), must match the Int64 reference draw-for-draw. *)
  QCheck.Test.make ~count:200 ~name:"rng bit-identical to Int64 SplitMix64"
    QCheck.(pair int (list (int_bound 5)))
    (fun (seed, ops) ->
      let a = ref (Rng.create seed) and b = ref (Rng_ref.create seed) in
      List.for_all
        (fun op ->
          match op with
          | 0 -> Rng.float !a = Rng_ref.float !b
          | 1 -> Rng.int !a 97 = Rng_ref.int !b 97
          | 2 -> Rng.bool !a = Rng_ref.bool !b
          | 3 ->
              a := Rng.split !a;
              b := Rng_ref.split !b;
              true
          | 4 ->
              Rng.bits53 !a
              = Int64.to_int (Int64.shift_right_logical (Rng_ref.next !b) 11)
          | _ -> Rng.int64 !a = Rng_ref.next !b)
        ops
      && Rng.int64 !a = Rng_ref.next !b)

(* --- Stats --- *)

let test_stats_basics () =
  check_float "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check_float "mean empty" 0.0 (Stats.mean []);
  check_float "stddev" (sqrt (2.0 /. 3.0)) (Stats.stddev [ 1.0; 2.0; 3.0 ]);
  check_float "stddev short" 0.0 (Stats.stddev [ 1.0 ]);
  check_float "min" 1.0 (Stats.minimum [ 3.0; 1.0; 2.0 ]);
  check_float "max" 3.0 (Stats.maximum [ 3.0; 1.0; 2.0 ]);
  check_float "median odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  check_float "median even" 1.5 (Stats.median [ 1.0; 2.0; 0.0; 3.0 ])

let test_stats_percentile () =
  let xs = List.init 101 float_of_int in
  check_float "p0" 0.0 (Stats.percentile xs 0.0);
  check_float "p100" 100.0 (Stats.percentile xs 100.0);
  check_float "p50" 50.0 (Stats.percentile xs 50.0);
  check_float "p25" 25.0 (Stats.percentile xs 25.0)

let test_stats_degenerate () =
  (* Empty and singleton samples: totals the experiments rely on when
     a run produces no (or one) data point. *)
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  check_float "singleton stddev" 0.0 (Stats.stddev [ 4.2 ]);
  check_float "singleton median" 4.2 (Stats.median [ 4.2 ]);
  check_float "singleton p0" 4.2 (Stats.percentile [ 4.2 ] 0.0);
  check_float "singleton p100" 4.2 (Stats.percentile [ 4.2 ] 100.0);
  check_float "empty fraction_below" 0.0 (Stats.fraction_below [] 1.0);
  check_float "empty fraction_at_least" 0.0 (Stats.fraction_at_least [] 1.0);
  check_float "fraction strictly below" 0.5
    (Stats.fraction_below [ 1.0; 2.0 ] 2.0);
  check_float "fraction at least incl" 0.5
    (Stats.fraction_at_least [ 1.0; 2.0 ] 2.0);
  Alcotest.(check bool) "min raises on empty" true (raises (fun () -> Stats.minimum []));
  Alcotest.(check bool) "max raises on empty" true (raises (fun () -> Stats.maximum []));
  Alcotest.(check bool) "percentile raises on empty" true
    (raises (fun () -> Stats.percentile [] 50.0));
  Alcotest.(check bool) "ecdf raises on empty" true
    (raises (fun () -> Stats.Ecdf.of_list []))

let test_ecdf_singleton () =
  let e = Stats.Ecdf.of_list [ 2.5 ] in
  check_float "below" 0.0 (Stats.Ecdf.eval e 2.0);
  check_float "at" 1.0 (Stats.Ecdf.eval e 2.5);
  check_float "above" 1.0 (Stats.Ecdf.eval e 3.0);
  let lo, hi = Stats.Ecdf.support e in
  check_float "support lo" 2.5 lo;
  check_float "support hi" 2.5 hi

let test_ecdf () =
  let e = Stats.Ecdf.of_list [ 1.0; 2.0; 3.0; 4.0 ] in
  check_float "below support" 0.0 (Stats.Ecdf.eval e 0.5);
  check_float "at 2" 0.5 (Stats.Ecdf.eval e 2.0);
  check_float "mid" 0.5 (Stats.Ecdf.eval e 2.5);
  check_float "above" 1.0 (Stats.Ecdf.eval e 10.0);
  let lo, hi = Stats.Ecdf.support e in
  check_float "lo" 1.0 lo;
  check_float "hi" 4.0 hi

let prop_ecdf_monotone =
  QCheck.Test.make ~name:"ecdf is monotone and ends at 1" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 40) (float_range (-100.) 100.))
    (fun xs ->
      let e = Stats.Ecdf.of_list xs in
      let grid = List.init 21 (fun i -> -110.0 +. (11.0 *. float_of_int i)) in
      let vals = List.map (Stats.Ecdf.eval e) grid in
      let rec mono = function
        | a :: (b :: _ as tl) -> a <= b && mono tl
        | _ -> true
      in
      mono vals && Stats.Ecdf.eval e 200.0 = 1.0)

let prop_percentile_within_range =
  QCheck.Test.make ~name:"percentile stays within sample range" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 50) (float_range (-50.) 50.))
        (float_range 0. 100.))
    (fun (xs, p) ->
      let v = Stats.percentile xs p in
      v >= Stats.minimum xs -. 1e-9 && v <= Stats.maximum xs +. 1e-9)

(* --- Pqueue --- *)

let test_pqueue_order () =
  let q = Pqueue.create () in
  Pqueue.push q 3.0 "c";
  Pqueue.push q 1.0 "a";
  Pqueue.push q 2.0 "b";
  Alcotest.(check (option (pair (float 0.0) string))) "peek" (Some (1.0, "a")) (Pqueue.peek q);
  Alcotest.(check (option (pair (float 0.0) string))) "pop a" (Some (1.0, "a")) (Pqueue.pop q);
  Alcotest.(check (option (pair (float 0.0) string))) "pop b" (Some (2.0, "b")) (Pqueue.pop q);
  Alcotest.(check (option (pair (float 0.0) string))) "pop c" (Some (3.0, "c")) (Pqueue.pop q);
  Alcotest.(check bool) "empty" true (Pqueue.pop q = None)

let test_pqueue_fifo_ties () =
  let q = Pqueue.create () in
  Pqueue.push q 1.0 "first";
  Pqueue.push q 1.0 "second";
  Pqueue.push q 1.0 "third";
  let order = List.init 3 (fun _ -> match Pqueue.pop q with Some (_, v) -> v | None -> "?") in
  Alcotest.(check (list string)) "FIFO among ties" [ "first"; "second"; "third" ] order

let test_pqueue_push_seq () =
  (* Caller-numbered entries: ties pop by the given number, whatever
     the insertion order, and [top_seq] reads it back. *)
  let q = Pqueue.create () in
  Pqueue.push_seq q 1.0 ~seq:7 "seven";
  Pqueue.push_seq q 1.0 ~seq:3 "three";
  Pqueue.push_seq q 0.5 ~seq:9 "early";
  Pqueue.push_seq q 1.0 ~seq:5 "five";
  Alcotest.(check int) "top_seq" 9 (Pqueue.top_seq q);
  let order =
    List.init 4 (fun _ ->
        let s = Pqueue.top_seq q in
        match Pqueue.pop q with Some (_, v) -> Printf.sprintf "%s@%d" v s | None -> "?")
  in
  Alcotest.(check (list string)) "priority, then seq"
    [ "early@9"; "three@3"; "five@5"; "seven@7" ] order;
  Alcotest.check_raises "top_seq empty" (Invalid_argument "Pqueue.top_seq: empty heap")
    (fun () -> ignore (Pqueue.top_seq q))

let test_pqueue_size_clear () =
  let q = Pqueue.create () in
  Alcotest.(check bool) "fresh empty" true (Pqueue.is_empty q);
  for i = 1 to 100 do
    Pqueue.push q (float_of_int (100 - i)) i
  done;
  Alcotest.(check int) "size" 100 (Pqueue.size q);
  Pqueue.clear q;
  Alcotest.(check bool) "cleared" true (Pqueue.is_empty q)

let prop_pqueue_sorts =
  QCheck.Test.make ~name:"pqueue drains in sorted order" ~count:200
    QCheck.(list (float_range (-1000.) 1000.))
    (fun xs ->
      let q = Pqueue.create () in
      List.iter (fun x -> Pqueue.push q x ()) xs;
      let rec drain acc =
        match Pqueue.pop q with None -> List.rev acc | Some (p, ()) -> drain (p :: acc)
      in
      let out = drain [] in
      out = List.sort compare xs)

let test_pqueue_empty_ops () =
  let q : unit Pqueue.t = Pqueue.create () in
  Alcotest.(check bool) "pop on empty" true (Pqueue.pop q = None);
  Alcotest.(check bool) "peek on empty" true (Pqueue.peek q = None);
  Alcotest.(check int) "size zero" 0 (Pqueue.size q);
  Pqueue.clear q;
  Alcotest.(check bool) "clear on empty is fine" true (Pqueue.is_empty q);
  Pqueue.push q 1.0 ();
  ignore (Pqueue.pop q);
  Alcotest.(check bool) "pop after drain" true (Pqueue.pop q = None)

let test_pqueue_interleaved_ties () =
  (* FIFO among equal priorities must survive interleaved pushes and
     pops at mixed priorities (the event queue does exactly this). *)
  let q = Pqueue.create () in
  Pqueue.push q 2.0 "t1";
  Pqueue.push q 1.0 "a";
  Pqueue.push q 2.0 "t2";
  Alcotest.(check (option (pair (float 0.0) string))) "min first" (Some (1.0, "a"))
    (Pqueue.pop q);
  Pqueue.push q 2.0 "t3";
  Pqueue.push q 0.5 "b";
  Alcotest.(check (option (pair (float 0.0) string))) "new min" (Some (0.5, "b"))
    (Pqueue.pop q);
  let order =
    List.init 3 (fun _ -> match Pqueue.pop q with Some (_, v) -> v | None -> "?")
  in
  Alcotest.(check (list string)) "ties stay FIFO across pops"
    [ "t1"; "t2"; "t3" ] order;
  Alcotest.(check bool) "drained" true (Pqueue.is_empty q)

let test_pqueue_capacity () =
  let q : int Pqueue.t = Pqueue.create ~capacity:4 () in
  Alcotest.(check int) "requested capacity" 4 (Pqueue.capacity q);
  for i = 1 to 10 do
    Pqueue.push q (float_of_int i) i
  done;
  Alcotest.(check bool) "grows past capacity" true (Pqueue.capacity q >= 10);
  let cap = Pqueue.capacity q in
  Pqueue.clear q;
  Alcotest.(check bool) "clear empties" true (Pqueue.is_empty q);
  Alcotest.(check int) "clear keeps the backing arrays" cap (Pqueue.capacity q);
  Pqueue.push q 1.0 1;
  Alcotest.(check (option (pair (float 0.0) int))) "usable after clear"
    (Some (1.0, 1)) (Pqueue.pop q)

let test_pqueue_pop_push () =
  (* pop_push must behave exactly like pop-then-push, including FIFO
     tie-breaking: the pushed entry gets a fresh (larger) sequence
     number, so it drains after existing entries of equal priority. *)
  let q = Pqueue.create () in
  Pqueue.push q 1.0 "a";
  Pqueue.push q 2.0 "b1";
  Pqueue.push q 2.0 "b2";
  Alcotest.(check (option (pair (float 0.0) string))) "returns the root"
    (Some (1.0, "a"))
    (Pqueue.pop_push q 2.0 "b3");
  let order =
    List.init 3 (fun _ -> match Pqueue.pop q with Some (_, v) -> v | None -> "?")
  in
  Alcotest.(check (list string)) "replacement ties FIFO after existing"
    [ "b1"; "b2"; "b3" ] order;
  (* Empty queue: nothing to pop, the push still lands. *)
  Alcotest.(check (option (pair (float 0.0) string))) "empty returns None" None
    (Pqueue.pop_push q 5.0 "x");
  Alcotest.(check (option (pair (float 0.0) string))) "push landed"
    (Some (5.0, "x")) (Pqueue.pop q)

let prop_pqueue_pop_push_equiv =
  (* Against the model: pop_push == (pop; push) over arbitrary
     interleavings of plain pushes and fused pop-pushes. *)
  QCheck.Test.make ~name:"pop_push equals pop-then-push" ~count:300
    QCheck.(
      list (pair bool (float_range 0. 100.)))
    (fun ops ->
      let a = Pqueue.create () and b = Pqueue.create () in
      let same = ref true in
      List.iteri
        (fun i (fused, prio) ->
          if fused then begin
            let ra = Pqueue.pop_push a prio i in
            let rb = Pqueue.pop b in
            Pqueue.push b prio i;
            if ra <> rb then same := false
          end
          else begin
            Pqueue.push a prio i;
            Pqueue.push b prio i
          end)
        ops;
      let rec drain q acc =
        match Pqueue.pop q with
        | None -> List.rev acc
        | Some pv -> drain q (pv :: acc)
      in
      !same && drain a [] = drain b [])

(* --- Units --- *)

let test_units () =
  check_float "tx time" 0.001 (Units.tx_time ~capacity_mbps:8.0 ~bytes:1000)

(* --- Table --- *)

let test_grids () =
  let lin = Table.linear_grid ~lo:0.0 ~hi:10.0 ~n:11 in
  Alcotest.(check int) "n points" 11 (List.length lin);
  check_float "first" 0.0 (List.hd lin);
  check_float "last" 10.0 (List.nth lin 10);
  let lg = Table.log_grid ~lo:0.1 ~hi:10.0 ~n:3 in
  check_float "log mid" 1.0 (List.nth lg 1);
  check_float ~eps:1e-9 "log last" 10.0 (List.nth lg 2)

let test_fmt_float () =
  Alcotest.(check string) "integer" "12" (Table.fmt_float 12.0);
  Alcotest.(check string) "small" "0.070" (Table.fmt_float 0.07);
  Alcotest.(check string) "mid" "3.14" (Table.fmt_float 3.142)

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "int range + spread" `Quick test_rng_int_range;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "split uncorrelated" `Quick test_rng_split_uncorrelated;
          Alcotest.test_case "copy replays" `Quick test_rng_copy;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "sample w/o replacement" `Quick
            test_rng_sample_without_replacement;
          Alcotest.test_case "shuffle is a permutation" `Quick
            test_rng_shuffle_permutation;
          QCheck_alcotest.to_alcotest prop_rng_matches_int64_reference;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basics" `Quick test_stats_basics;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "degenerate samples" `Quick test_stats_degenerate;
          Alcotest.test_case "ecdf" `Quick test_ecdf;
          Alcotest.test_case "ecdf singleton" `Quick test_ecdf_singleton;
          QCheck_alcotest.to_alcotest prop_ecdf_monotone;
          QCheck_alcotest.to_alcotest prop_percentile_within_range;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "ordering" `Quick test_pqueue_order;
          Alcotest.test_case "fifo ties" `Quick test_pqueue_fifo_ties;
          Alcotest.test_case "push_seq ties" `Quick test_pqueue_push_seq;
          Alcotest.test_case "empty ops" `Quick test_pqueue_empty_ops;
          Alcotest.test_case "interleaved ties" `Quick test_pqueue_interleaved_ties;
          Alcotest.test_case "size/clear" `Quick test_pqueue_size_clear;
          Alcotest.test_case "capacity" `Quick test_pqueue_capacity;
          Alcotest.test_case "pop_push" `Quick test_pqueue_pop_push;
          QCheck_alcotest.to_alcotest prop_pqueue_sorts;
          QCheck_alcotest.to_alcotest prop_pqueue_pop_push_equiv;
        ] );
      ("units", [ Alcotest.test_case "conversions" `Quick test_units ]);
      ( "table",
        [
          Alcotest.test_case "grids" `Quick test_grids;
          Alcotest.test_case "fmt_float" `Quick test_fmt_float;
        ] );
    ]
