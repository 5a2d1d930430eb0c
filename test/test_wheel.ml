(* Timing-wheel vs binary-heap equivalence.

   The engine swapped its event queue from [Pqueue] (kept as the
   reference implementation) to [Wheel]; the golden byte-identity
   contract rests on the two structures popping in exactly the same
   order — minimum priority first, FIFO among ties by global insertion
   sequence. These tests drive both through the same operation
   sequences and compare everything observable. *)

let check_float = Alcotest.(check (float 0.0))

(* Every push goes through the wheel's priority cell, as the engine's
   do. *)
let push w p v =
  (Wheel.push_prio_cell w).(0) <- p;
  Wheel.push w v

let drop_push w p v =
  (Wheel.push_prio_cell w).(0) <- p;
  Wheel.drop_push w v

(* --- directed cases --- *)

let test_fifo_ties () =
  let w = Wheel.create () in
  List.iter (fun (p, v) -> push w p v) [ (1.0, "a"); (1.0, "b"); (0.5, "c"); (1.0, "d") ];
  Alcotest.(check (option (pair (float 0.0) string))) "min" (Some (0.5, "c")) (Wheel.pop w);
  Alcotest.(check (option (pair (float 0.0) string))) "tie 1" (Some (1.0, "a")) (Wheel.pop w);
  Alcotest.(check (option (pair (float 0.0) string))) "tie 2" (Some (1.0, "b")) (Wheel.pop w);
  Alcotest.(check (option (pair (float 0.0) string))) "tie 3" (Some (1.0, "d")) (Wheel.pop w);
  Alcotest.(check (option (pair (float 0.0) string))) "empty" None (Wheel.pop w)

let test_overflow_migration () =
  (* Entries far beyond the ~250 ms horizon must overflow and come
     back in the right order, interleaved with near entries pushed
     both before and after the cursor advances. *)
  let w = Wheel.create () in
  push w 40.0 `Stop;
  push w 0.0001 `A;
  push w 10.0 `Tick10;
  push w 0.1 `Tick;
  Alcotest.(check int) "size" 4 (Wheel.size w);
  Alcotest.(check bool) "a" true (Wheel.pop w = Some (0.0001, `A));
  Alcotest.(check bool) "tick" true (Wheel.pop w = Some (0.1, `Tick));
  (* Push behind the current minimum after the cursor advanced: the
     clamped entry must still pop first. *)
  push w 0.1001 `Late;
  Alcotest.(check bool) "late" true (Wheel.pop w = Some (0.1001, `Late));
  Alcotest.(check bool) "t10" true (Wheel.pop w = Some (10.0, `Tick10));
  Alcotest.(check bool) "stop" true (Wheel.pop w = Some (40.0, `Stop));
  Alcotest.(check bool) "drained" true (Wheel.is_empty w)

let test_empty_ops () =
  let w = Wheel.create () in
  Alcotest.(check bool) "is_empty" true (Wheel.is_empty w);
  Alcotest.(check bool) "pop" true (Wheel.pop w = None);
  Alcotest.(check bool) "peek" true (Wheel.peek w = None);
  Alcotest.check_raises "drop" (Invalid_argument "Wheel.drop: empty") (fun () ->
      Wheel.drop w);
  (* drop_push on empty degenerates to push, like the heap. *)
  drop_push w 1.0 42;
  Alcotest.(check bool) "after drop_push" true (Wheel.pop w = Some (1.0, 42))

let test_top_matches_pop () =
  let w = Wheel.create () in
  List.iter (fun p -> push w p (int_of_float (p *. 1000.0))) [ 0.3; 0.1; 0.2 ];
  Alcotest.(check int) "top" 100 (Wheel.top w);
  let cell = Wheel.min_prio_cell w in
  check_float "cell after top" 0.1 cell.(0);
  Wheel.drop w;
  Alcotest.(check int) "next top" 200 (Wheel.top w);
  check_float "cell after next top" 0.2 cell.(0)

(* --- QCheck equivalence vs Pqueue --- *)

(* Operation alphabet mirroring the engine's use: pushes with a small
   priority set (forcing same-time ties), pops, and the fused
   drop_push. Priorities mix near-future values (same and adjacent
   wheel buckets) with far timers that exercise the overflow level. *)
type op = Push of float * int | Pop | Drop_push of float * int

let op_gen =
  QCheck.Gen.(
    let prio =
      oneof
        [
          (* dense ties *)
          map (fun i -> float_of_int i *. 0.001) (int_bound 5);
          (* spread within the horizon *)
          map (fun i -> float_of_int i *. 0.013) (int_bound 20);
          (* far timers -> overflow *)
          map (fun i -> 1.0 +. (float_of_int i *. 7.7)) (int_bound 6);
        ]
    in
    frequency
      [
        (5, map2 (fun p v -> Push (p, v)) prio nat);
        (3, return Pop);
        (2, map2 (fun p v -> Drop_push (p, v)) prio nat);
      ])

let ops_arb =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Push (p, v) -> Printf.sprintf "push %g %d" p v
             | Pop -> "pop"
             | Drop_push (p, v) -> Printf.sprintf "drop_push %g %d" p v)
           ops))
    QCheck.Gen.(list_size (int_bound 200) op_gen)

let prop_wheel_matches_pqueue =
  QCheck.Test.make ~count:500 ~name:"wheel pop sequence = heap pop sequence"
    ops_arb (fun ops ->
      let w = Wheel.create () and h = Pqueue.create () in
      List.for_all
        (fun op ->
          match op with
          | Push (p, v) ->
            push w p v;
            Pqueue.push h p v;
            Wheel.size w = Pqueue.size h
          | Pop -> Wheel.pop w = Pqueue.pop h
          | Drop_push (p, v) ->
            (* Compare the observable top before the fused op, then
               apply it to both. *)
            let same_top =
              match Pqueue.peek h with
              | None -> Wheel.is_empty w
              | Some ((p, _) as top) ->
                Wheel.peek w = Some top && (Wheel.min_prio_cell w).(0) = p
            in
            drop_push w p v;
            Pqueue.drop_push h p v;
            same_top)
        ops
      (* Drain both completely: every remaining element must agree,
         ties included. *)
      &&
      let rec drain () =
        match (Wheel.pop w, Pqueue.pop h) with
        | None, None -> true
        | a, b -> a = b && drain ()
      in
      drain ())

let () =
  Alcotest.run "wheel"
    [
      ( "wheel",
        [
          Alcotest.test_case "fifo ties" `Quick test_fifo_ties;
          Alcotest.test_case "overflow migration" `Quick test_overflow_migration;
          Alcotest.test_case "empty ops" `Quick test_empty_ops;
          Alcotest.test_case "top/top_prio" `Quick test_top_matches_pop;
          QCheck_alcotest.to_alcotest prop_wheel_matches_pqueue;
        ] );
    ]
