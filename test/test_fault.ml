(* Tests for the fault-plan DSL (lib/fault): the JSON codec across
   every action variant, the strict decoder's rejections, the
   normalize/validate contracts, the compiler's lowering (including
   the tie-break ordering, node-crash incident coverage, ramp
   endpoints and control-window merging) and the seeded generator's
   determinism. Mirrors the Obs.Trace codec tests in test_obs.ml. *)

let fig1 () =
  Multigraph.create ~n_nodes:3 ~n_techs:2
    ~edges:[ (0, 1, 0, 15.0); (1, 2, 0, 30.0); (0, 1, 1, 10.0) ]

(* ---------- codec ---------- *)

(* Awkward times and values on purpose: the codec must round-trip
   bit-exactly, not just to printf precision. *)
let all_action_variants =
  let open Fault in
  [
    Link_down { at = 0.1 +. 0.2; link = 5 };
    Link_up { at = 1.0 /. 3.0; link = 0; capacity = 97.53 };
    Capacity_set { at = Float.ldexp 1.0 (-40); link = 3; capacity = 0.0 };
    Capacity_ramp
      {
        at = 2.0;
        link = 1;
        from_cap = 30.0;
        to_cap = 10.0 /. 3.0;
        over = 0.75;
        steps = 4;
      };
    Loss_window { at = 3.0; until = 4.5; link = 2; prob = 0.19483726451 };
    Ctrl_drop { at = 0.0; until = 1e-3; prob = 1.0 };
    Ctrl_delay { at = 5.0; until = 6.0; delay = 0.07 /. 0.9 };
    Node_crash { at = 7.0; node = 0 };
    Node_restart { at = 8.25; node = 2 };
  ]

let test_plan_roundtrip () =
  let plan = all_action_variants in
  (match Fault.of_json (Fault.to_json plan) with
  | Ok p' ->
    if plan <> p' then
      Alcotest.failf "plan does not round-trip via of_json: %s"
        (Fault.encode plan)
  | Error m -> Alcotest.failf "of_json of own to_json failed: %s" m);
  match Fault.decode (Fault.encode plan) with
  | Ok p' ->
    if plan <> p' then
      Alcotest.failf "plan does not round-trip via decode: %s"
        (Fault.encode plan)
  | Error m -> Alcotest.failf "decode of own encoding failed: %s" m

let test_singleton_roundtrip () =
  (* Each variant alone, so one bad arm cannot hide behind the rest. *)
  List.iter
    (fun a ->
      match Fault.decode (Fault.encode [ a ]) with
      | Ok [ a' ] when a = a' -> ()
      | Ok _ -> Alcotest.failf "variant does not round-trip: %s" (Fault.encode [ a ])
      | Error m -> Alcotest.failf "decode failed on %s: %s" (Fault.encode [ a ]) m)
    all_action_variants;
  (* The empty plan round-trips too. *)
  match Fault.decode (Fault.encode Fault.empty) with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "empty plan decoded non-empty"
  | Error m -> Alcotest.failf "empty plan decode failed: %s" m

let test_decode_rejects () =
  List.iter
    (fun s ->
      match Fault.decode s with
      | Ok _ -> Alcotest.failf "decoder accepted %S" s
      | Error _ -> ())
    [
      (* unknown op *)
      {|{"version":1,"actions":[{"op":"gremlins","at":0}]}|};
      (* missing op *)
      {|{"version":1,"actions":[{"at":0,"link":1}]}|};
      (* missing field *)
      {|{"version":1,"actions":[{"op":"link_down","at":0}]}|};
      {|{"version":1,"actions":[{"op":"loss_window","at":0,"until":1,"link":0}]}|};
      {|{"version":1,"actions":[{"op":"capacity_ramp","at":0,"link":0,"from":1,"to":2,"over":1}]}|};
      (* mistyped field *)
      {|{"version":1,"actions":[{"op":"link_down","at":"zero","link":1}]}|};
      {|{"version":1,"actions":[{"op":"link_down","at":0,"link":1.5}]}|};
      (* numbers [encode] would write back as null *)
      {|{"version":1,"actions":[{"op":"link_down","at":1e400,"link":1}]}|};
      {|{"version":1,"actions":[{"op":"capacity_set","at":0,"link":1,"capacity":-1e400}]}|};
      (* an integral float beyond the int range, which would wrap *)
      {|{"version":1,"actions":[{"op":"link_down","at":0,"link":1e19}]}|};
      (* action not an object *)
      {|{"version":1,"actions":[42]}|};
      (* actions not a list *)
      {|{"version":1,"actions":{}}|};
      (* missing / bad version *)
      {|{"actions":[]}|};
      {|{"version":3,"actions":[]}|};
      {|{"version":"1","actions":[]}|};
      (* churn ops demand version 2 *)
      {|{"version":1,"actions":[{"op":"node_flap","at":1,"until":4,"node":0,"period":1,"duty":0.5}]}|};
      {|{"version":1,"actions":[{"op":"capacity_drift","at":1,"until":4,"link":0,"floor":0.5,"period":2,"steps":2}]}|};
      {|{"version":1,"actions":[{"op":"node_join","at":1,"node":0}]}|};
      (* plan not an object *)
      "[]";
      "not json at all";
      "";
    ]

(* ---------- normalize ---------- *)

let test_normalize_stable () =
  let open Fault in
  let a = Link_down { at = 2.0; link = 0 } in
  let b = Capacity_set { at = 2.0; link = 0; capacity = 15.0 } in
  let c = Link_up { at = 1.0; link = 1; capacity = 5.0 } in
  (* c sorts first; the equal-time pair keeps plan order. *)
  Alcotest.(check bool) "sorted, ties in plan order" true
    (normalize [ a; b; c ] = [ c; a; b ]);
  Alcotest.(check bool) "reversed ties keep their order" true
    (normalize [ b; a; c ] = [ c; b; a ]);
  Alcotest.(check bool) "already sorted is unchanged" true
    (normalize [ c; a; b ] = [ c; a; b ])

(* ---------- validate ---------- *)

(* A valid-under-fig1 twin of the codec list (the codec list uses
   out-of-range ids on purpose — fig1 has 6 links / 3 nodes). *)
let all_action_variants_valid =
  let open Fault in
  [
    Link_down { at = 0.3; link = 5 };
    Link_up { at = 1.0 /. 3.0; link = 0; capacity = 97.53 };
    Capacity_set { at = 0.5; link = 3; capacity = 0.0 };
    Capacity_ramp
      { at = 2.0; link = 1; from_cap = 30.0; to_cap = 3.0; over = 0.75; steps = 4 };
    Loss_window { at = 3.0; until = 4.5; link = 2; prob = 0.2 };
    Ctrl_drop { at = 0.0; until = 1e-3; prob = 1.0 };
    Ctrl_delay { at = 5.0; until = 6.0; delay = 0.08 };
    Node_crash { at = 7.0; node = 0 };
    Node_restart { at = 8.25; node = 2 };
  ]

let test_validate () =
  let g = fig1 () in
  let ok plan =
    match Fault.validate g plan with
    | Ok () -> ()
    | Error m -> Alcotest.failf "valid plan rejected: %s" m
  in
  let bad name plan =
    match Fault.validate g plan with
    | Ok () -> Alcotest.failf "%s: invalid plan accepted" name
    | Error _ -> ()
  in
  let open Fault in
  ok all_action_variants_valid;
  bad "negative time" [ Link_down { at = -1.0; link = 0 } ];
  bad "nan time" [ Link_down { at = Float.nan; link = 0 } ];
  bad "link out of range" [ Link_down { at = 0.0; link = 6 } ];
  bad "negative link" [ Link_down { at = 0.0; link = -1 } ];
  bad "negative capacity" [ Link_up { at = 0.0; link = 0; capacity = -2.0 } ];
  bad "infinite capacity"
    [ Capacity_set { at = 0.0; link = 0; capacity = Float.infinity } ];
  bad "until <= at" [ Loss_window { at = 2.0; until = 2.0; link = 0; prob = 0.5 } ];
  bad "prob > 1" [ Loss_window { at = 0.0; until = 1.0; link = 0; prob = 1.5 } ];
  bad "ctrl prob < 0" [ Ctrl_drop { at = 0.0; until = 1.0; prob = -0.1 } ];
  bad "negative delay" [ Ctrl_delay { at = 0.0; until = 1.0; delay = -0.01 } ];
  bad "over = 0"
    [
      Capacity_ramp
        { at = 0.0; link = 0; from_cap = 15.0; to_cap = 5.0; over = 0.0; steps = 2 };
    ];
  bad "steps = 0"
    [
      Capacity_ramp
        { at = 0.0; link = 0; from_cap = 15.0; to_cap = 5.0; over = 1.0; steps = 0 };
    ];
  bad "node out of range" [ Node_crash { at = 0.0; node = 3 } ];
  (* The first offending action is the one named. *)
  match
    Fault.validate g
      [ Link_down { at = 0.0; link = 0 }; Node_restart { at = 0.0; node = 99 } ]
  with
  | Error m ->
    Alcotest.(check bool) "error names the op" true
      (String.length m >= 12 && String.sub m 0 12 = "node_restart")
  | Ok () -> Alcotest.fail "bad tail action accepted"

(* ---------- compile ---------- *)

let test_compile_empty () =
  let g = fig1 () in
  let c = Fault.compile g [] in
  Alcotest.(check bool) "no link events" true (c.Fault.link_events = []);
  Alcotest.(check bool) "no loss events" true (c.Fault.loss_events = []);
  Alcotest.(check bool) "no ctrl events" true (c.Fault.ctrl_events = [])

let test_compile_failure_plan () =
  (* The legacy Section 6.1 failure scenario as a plan must lower to
     exactly the schedule the trace experiment always used. *)
  let g = fig1 () in
  let l = 2 in
  let cap = Multigraph.capacity g l in
  let c =
    Fault.compile g
      [
        Fault.Link_down { at = 3.0; link = l };
        Fault.Link_up { at = 4.5; link = l; capacity = cap };
      ]
  in
  Alcotest.(check bool) "exact legacy schedule" true
    (c.Fault.link_events = [ (3.0, l, 0.0); (4.5, l, cap) ]);
  Alcotest.(check bool) "no loss schedule" true (c.Fault.loss_events = []);
  Alcotest.(check bool) "no ctrl schedule" true (c.Fault.ctrl_events = [])

let test_compile_tie_break_order () =
  (* Equal-time actions keep plan order in the output, so the engine
     (FIFO on equal times) applies the last one last. *)
  let g = fig1 () in
  let down = Fault.Link_down { at = 2.0; link = 0 } in
  let set = Fault.Capacity_set { at = 2.0; link = 0; capacity = 15.0 } in
  let c1 = Fault.compile g [ down; set ] in
  Alcotest.(check bool) "down then set" true
    (c1.Fault.link_events = [ (2.0, 0, 0.0); (2.0, 0, 15.0) ]);
  let c2 = Fault.compile g [ set; down ] in
  Alcotest.(check bool) "set then down" true
    (c2.Fault.link_events = [ (2.0, 0, 15.0); (2.0, 0, 0.0) ])

let test_compile_node_crash_incident () =
  (* A crash fails every directed link touching the node, in
     ascending id; a restart restores the graph capacities. *)
  let g = fig1 () in
  let node = 1 in
  let incident =
    List.sort compare (Multigraph.out_links g node @ Multigraph.in_links g node)
  in
  Alcotest.(check bool) "node 1 touches every link" true
    (List.length incident = Multigraph.num_links g);
  let c =
    Fault.compile g
      [ Fault.Node_crash { at = 1.0; node }; Fault.Node_restart { at = 2.0; node } ]
  in
  let expected =
    List.map (fun l -> (1.0, l, 0.0)) incident
    @ List.map (fun l -> (2.0, l, Multigraph.capacity g l)) incident
  in
  Alcotest.(check bool) "crash+restart cover incident links" true
    (c.Fault.link_events = expected)

let test_compile_ramp_endpoints () =
  let g = fig1 () in
  let c =
    Fault.compile g
      [
        Fault.Capacity_ramp
          { at = 1.0; link = 0; from_cap = 15.0; to_cap = 6.0; over = 1.0; steps = 3 };
      ]
  in
  (match c.Fault.link_events with
  | (t0, l0, c0) :: _ ->
    Alcotest.(check bool) "initial set exact" true
      (t0 = 1.0 && l0 = 0 && c0 = 15.0)
  | [] -> Alcotest.fail "ramp produced no events");
  (match List.rev c.Fault.link_events with
  | (t_last, _, c_last) :: _ ->
    Alcotest.(check bool) "final step lands exactly on to_cap" true
      (t_last = 2.0 && c_last = 6.0)
  | [] -> assert false);
  Alcotest.(check int) "initial set + steps" 4 (List.length c.Fault.link_events);
  (* Capacities step monotonically for a monotone ramp. *)
  let caps = List.map (fun (_, _, cap) -> cap) c.Fault.link_events in
  Alcotest.(check bool) "monotone ramp" true
    (caps = List.sort (fun a b -> compare b a) caps)

let test_compile_ctrl_merge () =
  (* Overlapping drop and delay windows merge into atomic (t, drop,
     delay) states; each boundary re-asserts the full pair. *)
  let g = fig1 () in
  let c =
    Fault.compile g
      [
        Fault.Ctrl_drop { at = 1.0; until = 3.0; prob = 0.5 };
        Fault.Ctrl_delay { at = 2.0; until = 4.0; delay = 0.1 };
      ]
  in
  Alcotest.(check bool) "boundary replay states" true
    (c.Fault.ctrl_events
    = [ (1.0, 0.5, 0.0); (2.0, 0.5, 0.1); (3.0, 0.0, 0.1); (4.0, 0.0, 0.0) ])

let test_compile_ctrl_equal_time_coalesce () =
  (* Back-to-back windows sharing a boundary collapse to one state at
     that instant, and the later window's value wins. *)
  let g = fig1 () in
  let c =
    Fault.compile g
      [
        Fault.Ctrl_drop { at = 1.0; until = 2.0; prob = 0.3 };
        Fault.Ctrl_drop { at = 2.0; until = 3.0; prob = 0.6 };
      ]
  in
  Alcotest.(check bool) "shared boundary coalesces, last wins" true
    (c.Fault.ctrl_events = [ (1.0, 0.3, 0.0); (2.0, 0.6, 0.0); (3.0, 0.0, 0.0) ])

let test_compile_invalid_raises () =
  let g = fig1 () in
  let raises plan =
    try
      ignore (Fault.compile g plan);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "bad link raises" true
    (raises [ Fault.Link_down { at = 0.0; link = 99 } ]);
  Alcotest.(check bool) "bad window raises" true
    (raises [ Fault.Ctrl_drop { at = 3.0; until = 1.0; prob = 0.2 } ])

(* ---------- generator ---------- *)

let test_gen_deterministic () =
  let g = fig1 () in
  let draw seed intensity =
    Fault.Gen.plan ~intensity (Rng.create seed) g ~duration:20.0
  in
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "equal seeds, equal plans (%s)" (Fault.Gen.intensity_name i))
        true
        (draw 7 i = draw 7 i))
    [ Fault.Gen.Light; Fault.Gen.Moderate; Fault.Gen.Heavy ];
  Alcotest.(check bool) "different seeds diverge somewhere" true
    (List.exists (fun s -> draw s Fault.Gen.Heavy <> draw 7 Fault.Gen.Heavy)
       [ 8; 9; 10; 11 ])

let action_clear_time = Fault.end_time

let test_gen_valid_and_clears () =
  let g = fig1 () in
  let duration = 16.0 and clear_by = 6.0 in
  for seed = 0 to 24 do
    let plan =
      Fault.Gen.plan ~intensity:Fault.Gen.Heavy ~clear_by (Rng.create seed) g
        ~duration
    in
    Alcotest.(check bool) "plan non-empty" true (plan <> []);
    (match Fault.validate g plan with
    | Ok () -> ()
    | Error m -> Alcotest.failf "seed %d: generated invalid plan: %s" seed m);
    List.iter
      (fun a ->
        let t0 = Fault.start_time a and t1 = action_clear_time a in
        if not (t0 >= 0.0 && t1 <= clear_by) then
          Alcotest.failf "seed %d: action [%.3f, %.3f] escapes clear_by %.1f" seed
            t0 t1 clear_by)
      plan
  done

(* ---------- severing profile ---------- *)

let test_severing_shape () =
  let g = fig1 () in
  let duration = 16.0 and clear_by = 6.0 in
  for seed = 0 to 24 do
    let plan =
      Fault.Gen.plan ~intensity:Fault.Gen.Severing ~clear_by (Rng.create seed) g
        ~duration
    in
    (match Fault.validate g plan with
    | Ok () -> ()
    | Error m -> Alcotest.failf "seed %d: invalid severing plan: %s" seed m);
    match plan with
    | [ Fault.Node_crash { at = t0; node = v };
        Fault.Node_restart { at = t1; node = v' } ] ->
      if v <> v' then Alcotest.failf "seed %d: restart of a different node" seed;
      if not (t0 >= 0.2 && t0 < t1 && t1 <= clear_by) then
        Alcotest.failf "seed %d: window [%.3f, %.3f] escapes [0.2, %.1f]" seed t0
          t1 clear_by
    | _ ->
      Alcotest.failf "seed %d: severing plan is not one crash/restart pair: %s"
        seed (Fault.encode plan)
  done

let test_severing_victim_pinned () =
  let g = fig1 () in
  for seed = 0 to 9 do
    match
      Fault.Gen.plan ~intensity:Fault.Gen.Severing ~victim:2 (Rng.create seed) g
        ~duration:12.0
    with
    | [ Fault.Node_crash { node = 2; _ }; Fault.Node_restart { node = 2; _ } ] ->
      ()
    | p -> Alcotest.failf "seed %d: pinned victim not honored: %s" seed
             (Fault.encode p)
  done

let test_severing_roundtrip () =
  (* Generated severing plans survive the JSON codec. *)
  let g = fig1 () in
  let plan =
    Fault.Gen.plan ~intensity:Fault.Gen.Severing ~victim:1 (Rng.create 3) g
      ~duration:10.0
  in
  match Fault.decode (Fault.encode plan) with
  | Ok p when p = plan -> ()
  | Ok _ -> Alcotest.fail "severing plan does not round-trip"
  | Error m -> Alcotest.failf "severing plan decode failed: %s" m

let test_severing_severs_all_routes () =
  (* Compiling the severing plan must zero the capacity of every
     directed link incident to the victim — every route through or
     ending at the victim is down for the whole window. *)
  let g = fig1 () in
  let victim = 1 in
  let plan =
    Fault.Gen.plan ~intensity:Fault.Gen.Severing ~victim (Rng.create 11) g
      ~duration:12.0
  in
  let c = Fault.compile g plan in
  let incident =
    List.sort compare
      (Multigraph.out_links g victim @ Multigraph.in_links g victim)
  in
  let crash_t =
    match plan with Fault.Node_crash { at; _ } :: _ -> at | _ -> assert false
  in
  List.iter
    (fun l ->
      if not (List.exists (fun (t, l', cap) -> t = crash_t && l' = l && cap = 0.0)
                c.Fault.link_events)
      then Alcotest.failf "incident link %d not brought down at the crash" l)
    incident;
  List.iter
    (fun l ->
      if not
           (List.exists
              (fun (t, l', cap) ->
                t > crash_t && l' = l && cap = Multigraph.capacity g l)
              c.Fault.link_events)
      then Alcotest.failf "incident link %d not restored after the window" l)
    incident

let test_severing_name_and_determinism () =
  Alcotest.(check bool) "name round-trips" true
    (Fault.Gen.intensity_of_name "severing" = Some Fault.Gen.Severing
    && Fault.Gen.intensity_name Fault.Gen.Severing = "severing");
  let g = fig1 () in
  let draw seed =
    Fault.Gen.plan ~intensity:Fault.Gen.Severing (Rng.create seed) g
      ~duration:20.0
  in
  Alcotest.(check bool) "equal seeds, equal severing plans" true
    (draw 7 = draw 7);
  (* Pinning the victim must not consume the victim draw: the window
     of a pinned plan with the drawn victim matches the free plan. *)
  let free = draw 7 in
  let v = match free with Fault.Node_crash { node; _ } :: _ -> node | _ -> 0 in
  Alcotest.(check bool) "pin of the drawn victim changes the window only" true
    (match
       ( free,
         Fault.Gen.plan ~intensity:Fault.Gen.Severing ~victim:v (Rng.create 7) g
           ~duration:20.0 )
     with
    | ( [ Fault.Node_crash { node = a; _ }; _ ],
        [ Fault.Node_crash { node = b; _ }; _ ] ) -> a = v && b = v
    | _ -> false)

let test_severing_victim_ignored_elsewhere () =
  (* Non-severing intensities ignore [victim] and stay byte-stable. *)
  let g = fig1 () in
  let with_v =
    Fault.Gen.plan ~intensity:Fault.Gen.Heavy ~victim:2 (Rng.create 5) g
      ~duration:20.0
  in
  let without =
    Fault.Gen.plan ~intensity:Fault.Gen.Heavy (Rng.create 5) g ~duration:20.0
  in
  Alcotest.(check bool) "victim is ignored by heavy" true (with_v = without)

let test_gen_bad_args () =
  let g = fig1 () in
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "clear_by < 1 raises" true
    (raises (fun () ->
         Fault.Gen.plan ~clear_by:0.5 (Rng.create 1) g ~duration:10.0));
  Alcotest.(check bool) "clear_by > duration raises" true
    (raises (fun () ->
         Fault.Gen.plan ~clear_by:11.0 (Rng.create 1) g ~duration:10.0));
  Alcotest.(check bool) "bad duration raises" true
    (raises (fun () -> Fault.Gen.plan (Rng.create 1) g ~duration:0.0));
  let empty_g = Multigraph.create ~n_nodes:2 ~n_techs:1 ~edges:[] in
  Alcotest.(check bool) "no links raises" true
    (raises (fun () -> Fault.Gen.plan (Rng.create 1) empty_g ~duration:10.0));
  Alcotest.(check bool) "victim out of range raises" true
    (raises (fun () ->
         Fault.Gen.plan ~intensity:Fault.Gen.Severing ~victim:3 (Rng.create 1)
           (fig1 ()) ~duration:10.0));
  Alcotest.(check bool) "negative victim raises" true
    (raises (fun () ->
         Fault.Gen.plan ~intensity:Fault.Gen.Severing ~victim:(-1) (Rng.create 1)
           (fig1 ()) ~duration:10.0))

(* ---------- churn ops (plan version 2) ---------- *)

let churn_action_variants =
  let open Fault in
  [
    Node_flap { at = 1.5; until = 9.75; node = 1; period = 2.5; duty = 0.4 };
    Capacity_drift
      {
        at = 0.5;
        until = 8.5;
        link = 4;
        floor_frac = 1.0 /. 3.0;
        period = 4.0;
        steps = 3;
      };
    Node_join { at = 0.125; node = 2 };
  ]

let test_v2_roundtrip () =
  let plan = all_action_variants @ churn_action_variants in
  (match Fault.decode (Fault.encode plan) with
  | Ok p' when p' = plan -> ()
  | Ok _ -> Alcotest.fail "v2 plan does not round-trip"
  | Error m -> Alcotest.failf "v2 plan decode failed: %s" m);
  List.iter
    (fun a ->
      match Fault.decode (Fault.encode [ a ]) with
      | Ok [ a' ] when a = a' -> ()
      | Ok _ ->
        Alcotest.failf "churn variant does not round-trip: %s" (Fault.encode [ a ])
      | Error m -> Alcotest.failf "decode failed on %s: %s" (Fault.encode [ a ]) m)
    churn_action_variants

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_version_pinning () =
  (* Legacy plans must keep encoding byte-compatible version-1
     documents; the version rises to 2 exactly when a churn op is
     present. *)
  Alcotest.(check int) "legacy plan version" 1
    (Fault.plan_version all_action_variants);
  Alcotest.(check bool) "legacy encodes as version 1" true
    (contains ~needle:{|"version":1|} (Fault.encode all_action_variants));
  List.iter
    (fun a ->
      Alcotest.(check int)
        (Fault.op_name a ^ " is a version-2 op")
        2
        (Fault.plan_version [ a ]))
    churn_action_variants;
  Alcotest.(check bool) "churn encodes as version 2" true
    (contains ~needle:{|"version":2|} (Fault.encode churn_action_variants));
  (* A version-2 document may still carry only legacy ops. *)
  match
    Fault.decode
      {|{"version":2,"actions":[{"op":"link_down","at":1.0,"link":0}]}|}
  with
  | Ok [ Fault.Link_down { at = 1.0; link = 0 } ] -> ()
  | Ok _ -> Alcotest.fail "legacy op in v2 doc decoded wrongly"
  | Error m -> Alcotest.failf "legacy op in v2 doc rejected: %s" m

let link_events plan = (Fault.compile (fig1 ()) plan).Fault.link_events

let check_events name expected actual =
  if expected <> actual then
    Alcotest.failf "%s: expected %s, got %s" name
      (String.concat "; "
         (List.map (fun (t, l, c) -> Printf.sprintf "(%g,%d,%g)" t l c) expected))
      (String.concat "; "
         (List.map (fun (t, l, c) -> Printf.sprintf "(%g,%d,%g)" t l c) actual))

let test_compile_flap_cycles () =
  (* fig1 node 2 is incident to links 2/3 only (capacity 30). A
     2 s-period, 0.5-duty flap over [2, 10] fits exactly four full
     cycles; the node must end restored. *)
  let plan =
    [ Fault.Node_flap { at = 2.0; until = 10.0; node = 2; period = 2.0; duty = 0.5 } ]
  in
  let expected =
    List.concat_map
      (fun k ->
        let c = 2.0 +. (2.0 *. float_of_int k) in
        [ (c, 2, 0.0); (c, 3, 0.0); (c +. 1.0, 2, 30.0); (c +. 1.0, 3, 30.0) ])
      [ 0; 1; 2; 3 ]
  in
  check_events "flap cycles" expected (link_events plan)

let test_compile_drift_setpoints () =
  (* Link 0 (capacity 15), floor 0.5, period 4, 2 steps per half:
     two full cycles fit in [1, 9]; the triangle hits 11.25 / 7.5 on
     the way down and 11.25 / 15 on the way back up, each cycle. *)
  let plan =
    [
      Fault.Capacity_drift
        { at = 1.0; until = 9.0; link = 0; floor_frac = 0.5; period = 4.0; steps = 2 };
    ]
  in
  let expected =
    List.concat_map
      (fun c0 ->
        [
          (c0 +. 1.0, 0, 11.25); (c0 +. 2.0, 0, 7.5);
          (c0 +. 3.0, 0, 11.25); (c0 +. 4.0, 0, 15.0);
        ])
      [ 1.0; 5.0 ]
  in
  check_events "drift setpoints" expected (link_events plan)

let test_compile_join_holds_then_activates () =
  let plan = [ Fault.Node_join { at = 3.5; node = 2 } ] in
  check_events "join"
    [ (0.0, 2, 0.0); (0.0, 3, 0.0); (3.5, 2, 30.0); (3.5, 3, 30.0) ]
    (link_events plan)

let test_churn_validation () =
  let g = fig1 () in
  let bad name plan =
    match Fault.validate g plan with
    | Ok () -> Alcotest.failf "%s: invalid churn op accepted" name
    | Error _ -> ()
  in
  let open Fault in
  bad "flap period 0"
    [ Node_flap { at = 1.0; until = 5.0; node = 0; period = 0.0; duty = 0.5 } ];
  bad "flap duty 0"
    [ Node_flap { at = 1.0; until = 5.0; node = 0; period = 1.0; duty = 0.0 } ];
  bad "flap duty 1"
    [ Node_flap { at = 1.0; until = 5.0; node = 0; period = 1.0; duty = 1.0 } ];
  bad "flap window below one cycle"
    [ Node_flap { at = 1.0; until = 1.4; node = 0; period = 1.0; duty = 0.5 } ];
  bad "flap node out of range"
    [ Node_flap { at = 1.0; until = 5.0; node = 9; period = 1.0; duty = 0.5 } ];
  bad "drift floor > 1"
    [
      Capacity_drift
        { at = 1.0; until = 9.0; link = 0; floor_frac = 1.5; period = 2.0; steps = 2 };
    ];
  bad "drift steps 0"
    [
      Capacity_drift
        { at = 1.0; until = 9.0; link = 0; floor_frac = 0.5; period = 2.0; steps = 0 };
    ];
  bad "drift window below one cycle"
    [
      Capacity_drift
        { at = 1.0; until = 2.5; link = 0; floor_frac = 0.5; period = 2.0; steps = 2 };
    ];
  bad "join at 0" [ Node_join { at = 0.0; node = 0 } ]

let test_gen_churn_shape () =
  let g = fig1 () in
  let draw seed =
    Fault.Gen.plan ~intensity:Fault.Gen.Churn (Rng.create seed) g ~duration:30.0
  in
  Alcotest.(check bool) "churn draws are deterministic" true (draw 3 = draw 3);
  List.iter
    (fun seed ->
      let plan = draw seed in
      (match Fault.validate g plan with
      | Ok () -> ()
      | Error m -> Alcotest.failf "seed %d: generated churn invalid: %s" seed m);
      let count p = List.length (List.filter p plan) in
      let flaps = count (function Fault.Node_flap _ -> true | _ -> false) in
      let drifts = count (function Fault.Capacity_drift _ -> true | _ -> false) in
      let joins = count (function Fault.Node_join _ -> true | _ -> false) in
      Alcotest.(check bool) "1-2 flaps" true (flaps >= 1 && flaps <= 2);
      Alcotest.(check bool) "1-2 drifts" true (drifts >= 1 && drifts <= 2);
      Alcotest.(check int) "exactly one join" 1 joins;
      (* Long-horizon: every windowed action clears within the run. *)
      List.iter
        (fun a ->
          if Fault.end_time a > 30.0 then
            Alcotest.failf "seed %d: %s runs past the horizon" seed
              (Fault.op_name a))
        plan)
    [ 1; 2; 3; 4; 5 ];
  (* Churn needs room for its long windows. *)
  match
    Fault.Gen.plan ~intensity:Fault.Gen.Churn (Rng.create 1) g ~duration:5.0
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "churn on a 5 s run must be rejected"

let test_gen_protect () =
  let g = fig1 () in
  (* Protecting node 0 leaves nodes 1/2 and the 1-2 edge (links 2/3)
     as the only eligible victims. *)
  let protected_node = 0 in
  let touches_protected a =
    let open Fault in
    let link_bad l =
      let lk = Multigraph.link g l in
      lk.Multigraph.src = protected_node || lk.Multigraph.dst = protected_node
    in
    match a with
    | Link_down { link; _ } | Link_up { link; _ } | Capacity_set { link; _ }
    | Capacity_ramp { link; _ } | Loss_window { link; _ }
    | Capacity_drift { link; _ } ->
      link_bad link
    | Node_crash { node; _ } | Node_restart { node; _ }
    | Node_flap { node; _ } | Node_join { node; _ } ->
      node = protected_node
    | Ctrl_drop _ | Ctrl_delay _ -> false
  in
  List.iter
    (fun (intensity, duration) ->
      List.iter
        (fun seed ->
          let plan =
            Fault.Gen.plan ~intensity ~protect:[ protected_node ]
              (Rng.create seed) g ~duration
          in
          List.iter
            (fun a ->
              if touches_protected a then
                Alcotest.failf "seed %d: %s touches the protected node" seed
                  (Fault.op_name a))
            plan)
        [ 1; 2; 3; 4; 5; 6; 7 ])
    [
      (Fault.Gen.Light, 20.0); (Fault.Gen.Moderate, 20.0);
      (Fault.Gen.Heavy, 20.0); (Fault.Gen.Churn, 30.0);
    ];
  (* Byte-stability: an empty protect set consumes exactly the draws
     of the pre-protect generator. *)
  List.iter
    (fun seed ->
      let with_empty =
        Fault.Gen.plan ~intensity:Fault.Gen.Heavy ~protect:[] (Rng.create seed)
          g ~duration:20.0
      and without =
        Fault.Gen.plan ~intensity:Fault.Gen.Heavy (Rng.create seed) g
          ~duration:20.0
      in
      Alcotest.(check bool) "empty protect is draw-identical" true
        (with_empty = without))
    [ 1; 5; 9 ];
  (* Protecting everything leaves no victims. *)
  match
    Fault.Gen.plan ~protect:[ 0; 1; 2 ] (Rng.create 1) g ~duration:20.0
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "fully protected graph must be rejected"

let () =
  Alcotest.run "fault"
    [
      ( "codec",
        [
          Alcotest.test_case "plan round-trip" `Quick test_plan_roundtrip;
          Alcotest.test_case "every variant round-trips" `Quick
            test_singleton_roundtrip;
          Alcotest.test_case "strict decoder rejects" `Quick test_decode_rejects;
        ] );
      ( "plan",
        [
          Alcotest.test_case "normalize is stable" `Quick test_normalize_stable;
          Alcotest.test_case "validate" `Quick test_validate;
        ] );
      ( "compile",
        [
          Alcotest.test_case "empty plan" `Quick test_compile_empty;
          Alcotest.test_case "legacy failure plan" `Quick test_compile_failure_plan;
          Alcotest.test_case "equal-time tie-break" `Quick
            test_compile_tie_break_order;
          Alcotest.test_case "node crash incident links" `Quick
            test_compile_node_crash_incident;
          Alcotest.test_case "ramp endpoints" `Quick test_compile_ramp_endpoints;
          Alcotest.test_case "ctrl window merge" `Quick test_compile_ctrl_merge;
          Alcotest.test_case "ctrl equal-time coalesce" `Quick
            test_compile_ctrl_equal_time_coalesce;
          Alcotest.test_case "invalid plan raises" `Quick test_compile_invalid_raises;
        ] );
      ( "gen",
        [
          Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
          Alcotest.test_case "valid and clears in time" `Quick
            test_gen_valid_and_clears;
          Alcotest.test_case "bad arguments" `Quick test_gen_bad_args;
        ] );
      ( "severing",
        [
          Alcotest.test_case "one bounded crash window" `Quick
            test_severing_shape;
          Alcotest.test_case "victim pinned" `Quick test_severing_victim_pinned;
          Alcotest.test_case "codec round-trip" `Quick test_severing_roundtrip;
          Alcotest.test_case "all incident links down" `Quick
            test_severing_severs_all_routes;
          Alcotest.test_case "name + determinism" `Quick
            test_severing_name_and_determinism;
          Alcotest.test_case "victim ignored by other intensities" `Quick
            test_severing_victim_ignored_elsewhere;
        ] );
      ( "churn",
        [
          Alcotest.test_case "v2 round-trip" `Quick test_v2_roundtrip;
          Alcotest.test_case "version pinning" `Quick test_version_pinning;
          Alcotest.test_case "flap cycles" `Quick test_compile_flap_cycles;
          Alcotest.test_case "drift setpoints" `Quick test_compile_drift_setpoints;
          Alcotest.test_case "join holds then activates" `Quick
            test_compile_join_holds_then_activates;
          Alcotest.test_case "validation" `Quick test_churn_validation;
          Alcotest.test_case "generated churn shape" `Quick test_gen_churn_shape;
          Alcotest.test_case "protect honored" `Quick test_gen_protect;
        ] );
    ]
