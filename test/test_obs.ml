(* Tests for the observability layer (lib/obs): the JSON codec, the
   event round-trip across every variant, the streaming histogram, the
   metrics registry, the recorder's aggregation against the engine's
   own accounting, the trace-on/trace-off determinism contract and the
   strict JSONL file reader. *)

let check_float ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let has_sub sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* ---------- Json ---------- *)

let test_json_roundtrip () =
  let open Obs.Json in
  let v =
    Obj
      [
        ("int", Int (-42));
        ("float", Float (0.1 +. 0.2));
        ("tiny", Float 2.2250738585072014e-308);
        ("big", Float 1.7976931348623157e308);
        ("string", String "quote\" slash\\ newline\n tab\t ctrl\x01 caf\xc3\xa9");
        ("list", List [ Null; Bool true; Bool false; Int 0 ]);
        ("empty_obj", Obj []);
        ("empty_list", List []);
      ]
  in
  match parse (to_string v) with
  | Ok v' ->
    if v <> v' then Alcotest.failf "JSON does not round-trip: %s" (to_string v)
  | Error e -> Alcotest.failf "parse of own output failed: %s" e

let test_json_escapes () =
  match Obs.Json.parse {|"aéA\nb"|} with
  | Ok (Obs.Json.String s) ->
    Alcotest.(check string) "unicode escapes" "a\xc3\xa9A\nb" s
  | Ok _ -> Alcotest.fail "expected a string"
  | Error e -> Alcotest.failf "parse: %s" e

let test_json_rejects () =
  List.iter
    (fun s ->
      match Obs.Json.parse s with
      | Ok _ -> Alcotest.failf "parser accepted %S" s
      | Error _ -> ())
    [
      "";
      "{";
      "[1,]";
      {|{"a":}|};
      "tru";
      {|"unterminated|};
      "1 2";
      {|{'a':1}|};
      "[1 2]";
      "nan";
    ]

let test_json_strict_numbers () =
  (* JSON's number grammar, not OCaml's laxer converters. *)
  List.iter
    (fun s ->
      match Obs.Json.parse s with
      | Ok _ -> Alcotest.failf "parser accepted %S" s
      | Error _ -> ())
    [ "+5"; "01"; "1."; ".5"; "-"; "-."; "1e"; "1e+"; "00"; "0x10"; "1_000" ];
  List.iter
    (fun (s, want) ->
      match Obs.Json.parse s with
      | Ok v when v = want -> ()
      | Ok v -> Alcotest.failf "%S parsed to %s" s (Obs.Json.to_string v)
      | Error e -> Alcotest.failf "%S rejected: %s" s e)
    [
      ("0", Obs.Json.Int 0);
      ("-0", Obs.Json.Int 0);
      ("0.25", Obs.Json.Float 0.25);
      ("-0.5e+2", Obs.Json.Float (-50.0));
      ("1e9", Obs.Json.Float 1e9);
      ("9007199254740993", Obs.Json.Int 9007199254740993);
    ]

let test_json_error_offsets () =
  (* Errors pinpoint the offending token's start, and anything after
     one top-level value is trailing garbage. *)
  let expect_offset s off =
    match Obs.Json.parse s with
    | Ok _ -> Alcotest.failf "parser accepted %S" s
    | Error m ->
      let want = Printf.sprintf "offset %d" off in
      if not (has_sub want m) then
        Alcotest.failf "parse %S: error %S does not carry %S" s m want
  in
  expect_offset "[1, 7.5.2]" 4;
  expect_offset {|{"a": 01}|} 6;
  expect_offset {|{"a": +5}|} 6;
  expect_offset "[1] garbage" 4;
  expect_offset "1 2" 2;
  expect_offset "{} {}" 3

let test_json_accessors () =
  let open Obs.Json in
  let j = Obj [ ("n", Int 3); ("x", Float 2.5); ("s", String "hi") ] in
  Alcotest.(check (option int)) "int member" (Some 3)
    (Option.bind (member "n" j) to_int_opt);
  Alcotest.(check (option int)) "missing member" None
    (Option.bind (member "zzz" j) to_int_opt);
  check_float "float member" 2.5
    (Option.value ~default:Float.nan (Option.bind (member "x" j) to_float_opt));
  Alcotest.(check (option int)) "int refuses non-integral float" None
    (to_int_opt (Float 2.5))

(* ---------- Trace codec ---------- *)

(* Awkward times and values on purpose: the codec must round-trip
   bit-exactly, not just to printf precision. *)
let all_event_variants =
  let open Obs.Trace in
  [
    Enqueue { t = 0.1 +. 0.2; link = 96; flow = 0; seq = 0; bytes = 12000; qlen = 1 };
    Mac_grant
      { t = 1.0 /. 3.0; link = 3; flow = 1; seq = 7; collided = false; airtime = 0.00096 };
    Mac_grant
      { t = Float.ldexp 1.0 (-40); link = 3; flow = 1; seq = 8; collided = true;
        airtime = 1e-9 };
    Dequeue { t = 2.0; link = 0; flow = 0; seq = 123456789 };
    Collision { t = 3.5; link = 12; flow = 2; seq = 0 };
    Drop { t = 4.0; link = Some 5; flow = 0; seq = 1; reason = Queue_overflow };
    Drop { t = 4.0; link = Some 5; flow = 0; seq = 2; reason = Link_down };
    Drop { t = 4.0; link = None; flow = 0; seq = 3; reason = Misroute };
    Drop { t = 4.0; link = Some 9; flow = 0; seq = 4; reason = Backlog_cleared };
    Drop { t = 4.0; link = Some 2; flow = 1; seq = 5; reason = Fault_injected };
    Delivery { t = 5.0; flow = 0; seq = 42; bytes = 12000; delay = 0.19483726451 };
    Price_update { t = 6.0; link = 7; gamma = 1.1201133; price = 0.07 /. 0.9 };
    Rate_update { t = 6.0; flow = 0; rates = [| 10.25; 0.0; 3.3333333333333335 |] };
    Rate_update { t = 6.1; flow = 1; rates = [||] };
    Ack { t = 7.0; flow = 0; qr = [| 0.125; 0.5 |]; bytes = [| 48000; 0 |] };
    Link_event { t = 8.0; link = 11; capacity = 0.0 };
    Link_event { t = 9.0; link = 11; capacity = 97.53 };
    Loss_event { t = 10.0; link = 4; prob = 0.19483726451 };
    Loss_event { t = 10.5; link = 4; prob = 0.0 };
    Ctrl_event { t = 11.0; drop = 1.0 /. 3.0; delay = 0.07 /. 0.9 };
    Route_dead { t = 12.0; flow = 0; route = 1; detect_s = 0.29999999999999893 };
    Route_probe { t = 12.5; flow = 0; route = 1; attempt = 3 };
    Route_restored { t = 13.0; flow = 0; route = 1; down_s = 2.0 /. 0.7 };
    Price_reset { t = 14.0; link = 17 };
    Ecn_mark { t = 15.0; link = 3; flow = 1; seq = 99; occ = 60000 };
  ]

let test_event_roundtrip () =
  List.iter
    (fun e ->
      match Obs.Trace.decode (Obs.Trace.encode e) with
      | Ok e' ->
        if e <> e' then
          Alcotest.failf "event %S does not round-trip: %s" (Obs.Trace.kind e)
            (Obs.Trace.encode e)
      | Error m ->
        Alcotest.failf "decode of own encoding (%s) failed: %s"
          (Obs.Trace.kind e) m)
    all_event_variants;
  (* Every kind of the schema's closed set appears above. *)
  let covered =
    List.sort_uniq compare (List.map Obs.Trace.kind all_event_variants)
  in
  Alcotest.(check (list string))
    "all kinds covered" (List.sort compare Obs.Trace.kinds) covered

let test_decode_rejects () =
  List.iter
    (fun line ->
      match Obs.Trace.decode line with
      | Ok _ -> Alcotest.failf "decoder accepted %S" line
      | Error _ -> ())
    [
      {|{"ev":"warp","t":0}|};                                 (* unknown kind *)
      {|{"t":0,"link":1,"flow":0,"seq":0}|};                   (* no kind *)
      {|{"ev":"dequeue","t":0,"link":1,"flow":0}|};            (* missing seq *)
      {|{"ev":"dequeue","t":0,"link":"one","flow":0,"seq":0}|};(* mistyped *)
      {|{"ev":"drop","t":0,"link":1,"flow":0,"seq":0,"reason":"gremlins"}|};
      (* numbers [encode] would write back as null *)
      {|{"ev":"link","t":1e400,"link":0,"capacity":1}|};
      {|{"ev":"link","t":0,"link":0,"capacity":-1e400}|};
      {|{"ev":"rate","t":0,"flow":0,"rates":[1,1e400]}|};
      (* an integral float beyond the int range, which would wrap *)
      {|{"ev":"price_reset","t":0,"link":1e300}|};
      "not json at all";
      "";
    ]

(* ---------- Prof codec ---------- *)

let test_prof_entry_roundtrip () =
  let e =
    {
      Obs.Prof.name = "mac_phy";
      events = 1690;
      wall_s = 0.1 +. 0.2;
      ns_per_event = 1.0 /. 3.0;
      share_pct = 53.3;
      minor_words = 74419.0;
      words_per_event = Float.ldexp 1.0 (-40);
    }
  in
  Alcotest.(check bool) "entry round-trips" true
    (Obs.Prof.entry_of_json (Obs.Prof.entry_to_json e) = Ok e)

let test_prof_document () =
  let open Obs.Prof in
  let p = create () in
  List.iter
    (fun cat ->
      enter p;
      leave p cat)
    [ cat_mac_phy; cat_traffic; cat_mac_phy ];
  enter p;
  leave_silent p cat_scheduler;
  match document_of_json (to_json p) with
  | Error m -> Alcotest.failf "profile document does not decode: %s" m
  | Ok d ->
    Alcotest.(check int) "events" (events p) d.total_events;
    Alcotest.(check bool) "attributed seconds" true (d.attributed_s = total_wall p);
    Alcotest.(check bool) "entries" true (d.entries = report p)

(* ---------- Histogram ---------- *)

let test_histogram () =
  let open Obs.Metrics in
  let h = Histogram.create () in
  for i = 1 to 1000 do
    Histogram.observe h (float_of_int i)
  done;
  Alcotest.(check int) "count" 1000 (Histogram.count h);
  check_float ~eps:1e-6 "sum exact" 500500.0 (Histogram.sum h);
  check_float ~eps:1e-9 "mean exact" 500.5 (Histogram.mean h);
  check_float "min exact" 1.0 (Histogram.minimum h);
  check_float "max exact" 1000.0 (Histogram.maximum h);
  let rel q expected =
    let v = Histogram.quantile h q in
    if Float.abs (v -. expected) /. expected > 0.01 then
      Alcotest.failf "quantile %.2f: got %.3f, want %.3f within 1%%" q v expected
  in
  rel 0.5 500.0;
  rel 0.95 950.0;
  rel 0.99 990.0;
  check_float "q0 is min" 1.0 (Histogram.quantile h 0.0);
  check_float "q1 is max" 1000.0 (Histogram.quantile h 1.0)

let test_histogram_zero_bucket () =
  let open Obs.Metrics in
  let h = Histogram.create () in
  Histogram.observe h 0.0;
  Histogram.observe h (-3.0);
  Histogram.observe h 10.0;
  Alcotest.(check int) "count" 3 (Histogram.count h);
  check_float "negative clamped into zero bucket" 0.0 (Histogram.quantile h 0.3);
  check_float "max" 10.0 (Histogram.maximum h)

let test_registry () =
  let open Obs.Metrics in
  let reg = create () in
  let c = counter reg "a.count" in
  Counter.incr c;
  Counter.add c 4;
  Alcotest.(check int) "same name, same counter" 5
    (Counter.value (counter reg "a.count"));
  Gauge.set (gauge reg "b.gauge") 2.5;
  Series.add (series reg "c.series") 1.0 10.0;
  ignore (histogram reg "d.hist");
  Alcotest.(check (list string))
    "names sorted"
    [ "a.count"; "b.gauge"; "c.series"; "d.hist" ]
    (names reg);
  (match try Some (gauge reg "a.count") with Invalid_argument _ -> None with
  | None -> ()
  | Some _ -> Alcotest.fail "kind mismatch must raise Invalid_argument");
  match Obs.Json.member "a.count" (to_json reg) with
  | Some (Obs.Json.Int 5) -> ()
  | _ -> Alcotest.fail "to_json must carry the counter value"

(* ---------- engine integration ---------- *)

let small_net () =
  let g =
    Multigraph.create ~n_nodes:3 ~n_techs:2
      ~edges:[ (0, 1, 0, 15.0); (1, 2, 0, 30.0); (0, 1, 1, 10.0) ]
  in
  (g, Domain.single_domain_per_tech g)

let saturated_flow g dom ~src ~dst =
  let comb = Multipath.find g dom ~src ~dst in
  {
    Engine.src;
    dst;
    routes = Multipath.routes comb;
    init_rates = List.map snd comb.Multipath.paths;
    workload = Workload.Saturated;
    transport = Engine.Udp;
    tcp_params = None;
    start_time = 0.0;
    stop_time = None;
  }

let test_trace_determinism () =
  (* A sink only observes: same seed, bit-identical results with and
     without one (modulo the wall-clock perf block). *)
  let g, dom = small_net () in
  let flows = [ saturated_flow g dom ~src:0 ~dst:2 ] in
  let base =
    Engine.strip_perf (Engine.run (Rng.create 7) g dom ~flows ~duration:3.0)
  in
  let sink, got = Obs.Trace.collector () in
  let traced =
    Engine.strip_perf
      (Engine.run ~trace:sink (Rng.create 7) g dom ~flows ~duration:3.0)
  in
  if base <> traced then Alcotest.fail "tracing perturbed the simulation";
  Alcotest.(check bool) "trace saw events" true (got () <> [])

let test_perf_populated () =
  let g, dom = small_net () in
  let flows = [ saturated_flow g dom ~src:0 ~dst:2 ] in
  let res = Engine.run (Rng.create 7) g dom ~flows ~duration:1.0 in
  Alcotest.(check bool)
    "events/s positive" true
    (res.Engine.perf.Engine.events_per_s > 0.0);
  Alcotest.(check bool)
    "peak queue depth positive" true
    (res.Engine.perf.Engine.peak_queue_depth > 0)

let fig4_scenario () =
  match Tracing.find "fig4" with
  | Some sc -> sc
  | None -> Alcotest.fail "fig4 trace scenario missing"

let test_summary_cross_check () =
  (* The acceptance bar of this layer: replaying the fig4-scale trace
     through Obs.Summary reproduces the engine's goodput to 1e-9 and
     its delay statistics; Tracing.cross_check holds every tolerance. *)
  let sc = fig4_scenario () in
  let sink, got = Obs.Trace.collector () in
  let o = sc.Tracing.exec ~trace:sink () in
  let s = Obs.Summary.of_events ~duration:o.Tracing.duration (got ()) in
  (match Tracing.cross_check o s with
  | Ok () -> ()
  | Error m -> Alcotest.failf "cross-check failed:\n%s" m);
  Alcotest.(check int) "summary event count" (List.length (got ())) s.Obs.Summary.events

let test_recorder_aggregation () =
  (* Feed the fig4-scale trace into a Recorder and compare the
     registry against the engine's flow_result: the delay histogram
     sees the identical stream (bit-identical mean and p95), and the
     per-reason drop counters sum to the engine's queue_drops. *)
  let sc = fig4_scenario () in
  let reg = Obs.Metrics.create () in
  let rcd = Obs.Recorder.create reg in
  let o = sc.Tracing.exec ~trace:(Obs.Recorder.sink rcd) () in
  Obs.Recorder.flush rcd ~now:o.Tracing.duration;
  let fr = o.Tracing.result.Engine.flows.(0) in
  let h = Obs.Metrics.histogram reg "flow.0.delay" in
  check_float ~eps:0.0 "delay histogram mean == engine mean"
    fr.Engine.mean_delay
    (Obs.Metrics.Histogram.mean h);
  check_float ~eps:0.0 "delay histogram p95 == engine p95"
    fr.Engine.p95_delay
    (Obs.Metrics.Histogram.quantile h 0.95);
  let drop r = Obs.Metrics.Counter.value (Obs.Metrics.counter reg ("drops." ^ r)) in
  Alcotest.(check int) "drop counters sum to engine queue_drops"
    o.Tracing.result.Engine.queue_drops
    (drop "queue_overflow" + drop "link_down" + drop "backlog_cleared");
  Alcotest.(check bool) "event counter ran" true
    (Obs.Metrics.Counter.value (Obs.Metrics.counter reg "trace.events") > 0);
  Alcotest.(check bool) "per-link utilisation recorded" true
    (List.exists
       (fun n ->
         String.length n > 5
         && String.sub n 0 5 = "link."
         && Obs.Metrics.Series.length (Obs.Metrics.series reg n) > 0)
       (List.filter
          (fun n ->
            String.length n > 5
            && String.sub n 0 5 = "link."
            && String.length n > 5
            && String.sub n (String.length n - 5) 5 = ".util")
          (Obs.Metrics.names reg)))

let test_runtime_autoattach () =
  (* With the global registry installed and no explicit sink, the
     engine attaches a recorder by itself. *)
  Obs.Runtime.clear ();
  let reg = Obs.Runtime.install_metrics () in
  Fun.protect ~finally:Obs.Runtime.clear (fun () ->
      let g, dom = small_net () in
      let flows = [ saturated_flow g dom ~src:0 ~dst:2 ] in
      ignore (Engine.run (Rng.create 7) g dom ~flows ~duration:1.0);
      Alcotest.(check bool) "registry populated" true
        (Obs.Metrics.Counter.value (Obs.Metrics.counter reg "trace.events") > 0))

(* ---------- Summary.of_file strictness ---------- *)

let with_temp_trace lines body =
  let path = Filename.temp_file "empower_obs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      List.iter (fun l -> output_string oc (l ^ "\n")) lines;
      close_out oc;
      body path)

let valid_line =
  {|{"ev":"delivery","t":0.5,"flow":0,"seq":0,"bytes":12000,"delay":0.01}|}

let test_of_file_ok () =
  with_temp_trace [ valid_line; valid_line ] (fun path ->
      match Obs.Summary.of_file ~duration:1.0 path with
      | Ok s ->
        Alcotest.(check int) "events" 2 s.Obs.Summary.events;
        (match Obs.Summary.flow_stats s 0 with
        | Some st ->
          Alcotest.(check int) "bytes" 24000 st.Obs.Summary.delivered_bytes;
          check_float "goodput" 0.192 st.Obs.Summary.goodput_mbps
        | None -> Alcotest.fail "flow 0 missing from summary")
      | Error m -> Alcotest.failf "valid trace rejected: %s" m)

let test_diff_first_divergence () =
  (* Obs.Diff (empower_eval diff): the first differing line with its
     shared context; None only for byte-identical files. *)
  let with_bytes s body =
    let path = Filename.temp_file "empower_diff" ".jsonl" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Out_channel.with_open_bin path (fun oc -> output_string oc s);
        body path)
  in
  let diff a b =
    with_bytes a (fun pa ->
        with_bytes b (fun pb ->
            match Obs.Diff.files pa pb with
            | Ok d -> d
            | Error m -> Alcotest.failf "diff: %s" m))
  in
  let lines = "a\nb\nc\nd\ne\n" in
  Alcotest.(check bool) "identical" true (diff lines lines = None);
  (match diff lines "a\nb\nc\nd\nX\n" with
  | Some d ->
    Alcotest.(check int) "index" 4 d.Obs.Diff.index;
    Alcotest.(check (list string)) "context" [ "b\n"; "c\n"; "d\n" ] d.Obs.Diff.context;
    Alcotest.(check (option string)) "a" (Some "e\n") d.Obs.Diff.a;
    Alcotest.(check (option string)) "b" (Some "X\n") d.Obs.Diff.b
  | None -> Alcotest.fail "a changed line went unnoticed");
  (match diff lines "a\nb\n" with
  | Some d ->
    Alcotest.(check int) "short file index" 2 d.Obs.Diff.index;
    Alcotest.(check (option string)) "past the end" None d.Obs.Diff.b
  | None -> Alcotest.fail "a truncated file went unnoticed");
  match diff lines "a\nb\nc\nd\ne" with
  | Some d -> Alcotest.(check int) "missing final newline" 4 d.Obs.Diff.index
  | None -> Alcotest.fail "a missing final newline went unnoticed"

let test_of_file_strict () =
  let expect_error ~needle lines =
    with_temp_trace lines (fun path ->
        match Obs.Summary.of_file ~duration:1.0 path with
        | Ok _ -> Alcotest.failf "accepted a trace with %s" needle
        | Error m ->
          (* The error names the offending line number. *)
          let has sub s =
            let n = String.length sub and m = String.length s in
            let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
            go 0
          in
          if not (has needle m) then
            Alcotest.failf "error %S does not mention %S" m needle)
  in
  expect_error ~needle:":2:" [ valid_line; "this is not json" ];
  expect_error ~needle:":1:" [ {|{"ev":"warp","t":0}|} ];
  expect_error ~needle:":2:" [ valid_line; "" ]

(* ---------- flight recorder ---------- *)

let rec last_n n xs =
  let len = List.length xs in
  if len <= n then xs else last_n n (List.tl xs)

let test_flight_fidelity () =
  (* The struct-of-arrays ring reproduces every kind bit-exactly. *)
  let n = List.length all_event_variants in
  let fl = Obs.Flight.create ~capacity:n () in
  List.iter (Obs.Flight.event fl) all_event_variants;
  if Obs.Flight.events fl <> all_event_variants then
    Alcotest.fail "ring does not reproduce the recorded events";
  Alcotest.(check int) "recorded" n (Obs.Flight.recorded fl)

let test_flight_wraparound () =
  let n = List.length all_event_variants in
  let cap = 8 in
  let fl = Obs.Flight.create ~capacity:cap () in
  List.iter (Obs.Flight.event fl) all_event_variants;
  Alcotest.(check int) "recorded counts every offer" n (Obs.Flight.recorded fl);
  let expect = last_n cap all_event_variants in
  if Obs.Flight.events fl <> expect then
    Alcotest.fail "ring must hold the last [capacity] events, oldest first";
  (* A dump decodes strictly, line for line, to the ring contents. *)
  let path = Filename.temp_file "empower_flight" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      match Obs.Flight.dump ~path fl with
      | Error m -> Alcotest.failf "dump: %s" m
      | Ok (path', written) ->
        Alcotest.(check string) "dump reports its path" path path';
        Alcotest.(check int) "dump writes capacity lines" cap written;
        (match Obs.Summary.read_file path with
        | Ok evs ->
          if evs <> expect then
            Alcotest.fail "dump does not decode back to the ring contents"
        | Error m -> Alcotest.failf "dump not strictly replayable: %s" m))

let test_flight_invariant_dump () =
  (* The acceptance scenario: an invariant violation escaping the
     event loop must leave a strictly replayable flight dump behind.
     The violation is forced through the documented harness hook —
     a phantom drop breaks frame conservation at the next audit. *)
  let g, dom = small_net () in
  let flows = [ saturated_flow g dom ~src:0 ~dst:2 ] in
  let path = Filename.temp_file "empower_flight" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let fl = Obs.Flight.create ~capacity:512 ~dump_path:path () in
      let inv = Invariants.create () in
      let seen = ref 0 in
      let sabotage =
        Obs.Trace.of_fn (fun ev ->
            incr seen;
            if !seen = 200 then
              Invariants.on_drop inv ~now:(Obs.Trace.time ev) ~flow:0
                ~link:None ~reason:(`Drop Obs.Trace.Misroute))
      in
      (match
         Engine.run ~invariants:inv ~trace:sabotage ~flight:fl (Rng.create 7)
           g dom ~flows ~duration:3.0
       with
      | _ -> Alcotest.fail "sabotaged run must raise Violation"
      | exception Invariants.Violation _ -> ());
      let seen_at_raise = !seen in
      Obs.Flight.event fl (Obs.Trace.Price_reset { t = 0.0; link = 0 });
      Alcotest.(check int) "sink detached on the exception path" seen_at_raise
        !seen;
      match Obs.Summary.read_file path with
      | Error m -> Alcotest.failf "flight dump not strictly replayable: %s" m
      | Ok evs ->
        Alcotest.(check bool) "dump holds events" true (evs <> []);
        let s = Obs.Summary.of_events ~duration:3.0 evs in
        Alcotest.(check int) "replay folds every dumped line"
          (List.length evs) s.Obs.Summary.events)

(* ---------- one observation stream ---------- *)

(* The engine writes each event once, into the flight ring, which
   offers every row to the run's sink. These pin that contract: the
   bytes of the reference traces and of a forced flight dump, the ring
   as the tail of the sink's stream, and no leak from a reused ring
   into an earlier run's sink. *)

let md5_of_file write =
  let path = Filename.temp_file "empower_stream" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write path;
      Digest.to_hex (Digest.file path))

let trace_md5 ?prof name =
  let outcome = ref None in
  let digest =
    md5_of_file (fun path ->
        let sc =
          match Tracing.find name with
          | Some sc -> sc
          | None -> Alcotest.failf "trace scenario %s missing" name
        in
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () ->
            outcome := Some (sc.Tracing.exec ~trace:(Obs.Trace.to_channel oc) ?prof ())))
  in
  match !outcome with
  | Some o -> (digest, o.Tracing.result)
  | None -> Alcotest.failf "trace scenario %s did not run" name

let test_stream_trace_digests () =
  (* Digests of [empower_eval trace mini|fig4|failure|tcp] output. A
     profiled run must write the same bytes (the profiler observes the
     clock only) and attribute exactly one handler per processed
     event. *)
  List.iter
    (fun (name, expected) ->
      Alcotest.(check string) (name ^ " trace") expected (fst (trace_md5 name));
      let prof = Obs.Prof.create () in
      let digest, result = trace_md5 ~prof name in
      Alcotest.(check string) (name ^ " trace, profiled") expected digest;
      Alcotest.(check int) (name ^ " profiled events")
        result.Engine.events_processed (Obs.Prof.events prof))
    [
      ("mini", "f5638e9c39764c45d4c5196d48b165b9");
      ("fig4", "1cf176521c21051b47d92c1bc547e397");
      ("failure", "77297c248ab42027f8973a26d3503bad");
      ("tcp", "8134ef74f3b1327a4d3547246b34229b");
    ]

(* Testbed-scale pins. Every control tick writes one Price_update row
   per priced link (616 on the testbed) carrying d_l Σ_{i∈I_l} γ_i, so
   these digests check the engine's restricted MAC walks, its
   restricted demand fold and its cached Σγ byte for byte. *)

let traced_to path run =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> run (Obs.Trace.to_channel oc))

let test_stream_testbed_concurrent () =
  (* Three concurrent saturated UDP flows on the testbed, CC on,
     delta = 0.05, default collision probability: overlapping
     interference domains and cross-flow contenders. *)
  let digest =
    md5_of_file (fun path ->
        traced_to path (fun sink ->
            let net =
              Runner.network (Testbed.generate (Rng.create 4242)) Schemes.Empower
            in
            let flow (src, dst) =
              let routes, rates = Runner.routes_and_rates net Schemes.Empower ~src ~dst in
              if routes = [] then Alcotest.failf "no route %d -> %d" src dst;
              Runner.flow_spec ~src ~dst (routes, rates)
            in
            let flows = List.map flow [ (0, 12); (3, 17); (8, 21) ] in
            let config = { Engine.default_config with Engine.delta = 0.05 } in
            ignore
              (Engine.run ~config ~trace:sink (Rng.create 5) net.Empower.g
                 net.Empower.dom ~flows ~duration:2.0)))
  in
  Alcotest.(check string) "three-flow testbed trace" "d837045c89eac53c4f6bf6b36824aa3e"
    digest

let test_stream_recovery_resets () =
  (* Self-healing chaos runs reset γ mid-period, which must invalidate
     every cached Σγ it feeds. Under [Severing] the whole flow is down
     when its γ resets; under [Heavy] the surviving routes keep
     stamping prices across the resets, so a stale Σγ changes the
     trace. *)
  let chaos intensity =
    md5_of_file (fun path ->
        traced_to path (fun sink ->
            ignore
              (Scenario.run ~trace:sink
                 (Chaos.spec ~intensity ~recovery:true ~seed:13 ()))))
  in
  Alcotest.(check string) "severing recovery trace" "7b95cdad64914026d1c6a21da70acd62"
    (chaos Fault.Gen.Severing);
  Alcotest.(check string) "heavy recovery trace" "75fa9213fe2b13fb3abe432fbc57e41e"
    (chaos Fault.Gen.Heavy)

let twin_reset_net =
  lazy (Runner.network (Testbed.generate (Rng.create 4242)) Schemes.Empower)

(* Testbed flow 3->17 on two routes; the first link of the second
   route, [l], fails at 3 s and returns at 4.5 s. *)
let twin_reset_routes () =
  let routes, _ =
    Runner.routes_and_rates (Lazy.force twin_reset_net) Schemes.Empower ~src:3 ~dst:17
  in
  match routes with
  | [ a; b ] -> (a, List.hd b.Paths.links)
  | _ -> Alcotest.fail "expected two routes 3 -> 17"

let twin_reset_run ?flight trace =
  let net = Lazy.force twin_reset_net in
  let g = net.Empower.g in
  let routes, rates = Runner.routes_and_rates net Schemes.Empower ~src:3 ~dst:17 in
  let _, l = twin_reset_routes () in
  let config = { Engine.default_config with Engine.dead_route = Engine.Heal } in
  ignore
    (Engine.run ~config ~trace ?flight
       ~link_events:[ (3.0, l, 0.0); (4.5, l, Multigraph.capacity g l) ]
       (Rng.create 2) g net.Empower.dom
       ~flows:[ Runner.flow_spec ~src:3 ~dst:17 (routes, rates) ]
       ~duration:6.0)

let test_stream_twin_reset () =
  (* A route death resets γ on the failed link alone: its twins (links
     with the same I_l) keep their γ, and every later price must see
     the class's Σγ recomputed. Testbed flow 3->17, CC on, recovery
     on: routes 3->14->17 and 3->9->17, every PLC hop under one panel
     (one twin class). 3->9 fails at 3 s and returns at 4.5 s, while
     the surviving route's PLC hop 3->14 keeps stamping the class's
     Σγ into its frames. *)
  let dom = (Lazy.force twin_reset_net).Empower.dom in
  let survivor, l = twin_reset_routes () in
  if not (List.exists (fun l' -> Domain.twin dom l' = Domain.twin dom l) survivor.Paths.links)
  then Alcotest.fail "the surviving route has no twin of the failed link";
  let collect, events = Obs.Trace.collector () in
  let digest =
    md5_of_file (fun path ->
        traced_to path (fun sink -> twin_reset_run (Obs.Trace.tee sink collect)))
  in
  (* The run does what it claims: a reset of a link whose class has
     other members with γ > 0 at that moment, and price rows after. *)
  let gamma = Hashtbl.create 64 in
  let mixed = ref None in
  List.iter
    (function
      | Obs.Trace.Price_update { link; gamma = v; _ } -> Hashtbl.replace gamma link v
      | Obs.Trace.Price_reset { t; link } ->
        let twin_priced =
          Hashtbl.fold
            (fun l' v acc ->
              acc || (l' <> link && v > 0.0 && Domain.twin dom l' = Domain.twin dom link))
            gamma false
        in
        if twin_priced && !mixed = None then mixed := Some t
      | _ -> ())
    (events ());
  (match !mixed with
  | None -> Alcotest.fail "no γ reset on one member of a priced twin class"
  | Some t ->
    if
      not
        (List.exists
           (function Obs.Trace.Price_update { t = t'; _ } -> t' > t | _ -> false)
           (events ()))
    then Alcotest.fail "no price row after the reset");
  Alcotest.(check string) "twin-class reset trace" "e6e382a2ffcf33cbe9d4ab49b5f3ade2"
    digest

let test_stream_flight_digest () =
  (* The forced dump of [empower_eval chaos --sever --no-recovery
     --seed 13 --flight F]: the flow never recovers, the default ring
     wraps, and its last 65536 events are dumped. *)
  let digest =
    md5_of_file (fun path ->
        let ring = Obs.Flight.create ~dump_path:path () in
        ignore
          (Scenario.run ~flight:ring
             (Chaos.spec ~intensity:Fault.Gen.Severing ~recovery:false ~seed:13 ()));
        match Obs.Flight.dump ring with
        | Ok (_, n) -> Alcotest.(check int) "full ring dumped" 65536 n
        | Error m -> Alcotest.failf "dump: %s" m)
  in
  Alcotest.(check string) "severance flight dump" "af90350132c5451184db28b25695cc97"
    digest

let stream_run ?trace ?flight () =
  let g, dom = small_net () in
  let flows = [ saturated_flow g dom ~src:0 ~dst:2 ] in
  ignore (Engine.run ?trace ?flight (Rng.create 7) g dom ~flows ~duration:2.0)

let test_stream_ring_is_tail () =
  let cap = 1000 in
  let ring = Obs.Flight.create ~capacity:cap () in
  let sink, got = Obs.Trace.collector () in
  stream_run ~trace:sink ~flight:ring ();
  let all = got () in
  Alcotest.(check bool) "run wraps the ring" true (List.length all > cap);
  Alcotest.(check int) "ring recorded every event" (List.length all)
    (Obs.Flight.recorded ring);
  if Obs.Flight.events ring <> last_n cap all then
    Alcotest.fail "ring is not the tail of the sink's stream"

let test_stream_reused_ring_detached () =
  let ring = Obs.Flight.create ~capacity:64 () in
  let sink, count = Obs.Trace.counter () in
  stream_run ~trace:sink ~flight:ring ();
  let first = count () and recorded = Obs.Flight.recorded ring in
  Obs.Flight.event ring (Obs.Trace.Price_reset { t = 0.0; link = 0 });
  Alcotest.(check int) "sink detached when the run ended" first (count ());
  stream_run ~flight:ring ();
  Alcotest.(check bool) "second run wrote to the ring" true
    (Obs.Flight.recorded ring > recorded + 1);
  Alcotest.(check int) "first run's sink saw nothing more" first (count ())

let test_stream_armed_ring_allocation () =
  (* Recording allocates nothing on the per-frame and per-tick paths:
     arming a ring adds under one minor word per recorded row (only the
     array-carrying Rate_update and Ack rows allocate, a few per tick).
     The ring is made outside the measured window, and a first run
     warms up whatever the engine initialises once. *)
  let ring = Obs.Flight.create () in
  let words run =
    let w0 = Gc.minor_words () in
    run ();
    Gc.minor_words () -. w0
  in
  stream_run ();
  let plain = words (fun () -> stream_run ()) in
  let armed = words (fun () -> stream_run ~flight:ring ()) in
  let rows = Obs.Flight.recorded ring in
  if armed -. plain > float_of_int rows then
    Alcotest.failf "arming the ring cost %.0f minor words over %d rows (%.2f per row)"
      (armed -. plain) rows
      ((armed -. plain) /. float_of_int rows)

(* ---------- sinks that read some kinds ---------- *)

let kinds_of evs = List.map Obs.Trace.kind evs
let only wanted evs = List.filter (fun ev -> List.mem (Obs.Trace.kind ev) wanted) evs

let test_kinds_names () =
  Alcotest.(check (list string)) "none reads nothing" [] (Obs.Trace.reads Obs.Trace.none);
  let full, _ = Obs.Trace.collector () in
  Alcotest.(check (list string)) "default reads every kind" Obs.Trace.kinds
    (Obs.Trace.reads full);
  let part, _ = Obs.Trace.collector ~kinds:[ "route_restored"; "route_dead" ] () in
  Alcotest.(check (list string)) "reads in schema order" [ "route_dead"; "route_restored" ]
    (Obs.Trace.reads part);
  match Obs.Trace.collector ~kinds:[ "delivery"; "warp" ] () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "an unknown kind name must be rejected"

let test_kinds_ring_subsequence () =
  (* A ring offers a restricted sink exactly the rows of its kinds: the
     subsequence of what a full collector gets from the same run. *)
  let wanted = [ "route_dead"; "route_restored" ] in
  let full, all = Obs.Trace.collector () in
  twin_reset_run ~flight:(Obs.Flight.create ()) full;
  let part, got = Obs.Trace.collector ~kinds:wanted () in
  twin_reset_run ~flight:(Obs.Flight.create ()) part;
  let expect = only wanted (all ()) in
  Alcotest.(check (list string)) "the run declares a route dead and restores it" wanted
    (List.sort_uniq compare (kinds_of expect));
  if got () <> expect then Alcotest.fail "restricted sink is not the filtered stream"

let test_kinds_tee () =
  (* Each side of a tee takes its own kinds, from a ring or from emit. *)
  let wanted = [ "delivery"; "link"; "ctrl" ] in
  let check_tee name offer =
    let part, got = Obs.Trace.collector ~kinds:wanted () in
    let full, all = Obs.Trace.collector () in
    offer (Obs.Trace.tee part full);
    if all () <> all_event_variants then Alcotest.failf "%s: full side lost events" name;
    if got () <> only wanted all_event_variants then
      Alcotest.failf "%s: restricted side took other kinds" name
  in
  check_tee "emit" (fun s -> List.iter (Obs.Trace.emit s) all_event_variants);
  check_tee "ring" (fun s ->
      let fl = Obs.Flight.create () in
      Obs.Flight.attach fl ~clock:(Array.make 1 0.0) (Some s);
      List.iter (Obs.Flight.event fl) all_event_variants)

let test_kinds_none_unobserved () =
  (* Obs.Trace.none leaves a run unobserved, and as an explicit sink it
     keeps the ambient --metrics recorder off. *)
  let g, dom = small_net () in
  let flows = [ saturated_flow g dom ~src:0 ~dst:2 ] in
  let run ?trace () =
    Engine.strip_perf (Engine.run ?trace (Rng.create 7) g dom ~flows ~duration:3.0)
  in
  Obs.Runtime.clear ();
  let base = run () in
  let reg = Obs.Runtime.install_metrics () in
  Fun.protect ~finally:Obs.Runtime.clear (fun () ->
      if run ~trace:Obs.Trace.none () <> base then
        Alcotest.fail "a run with Obs.Trace.none differs from an unobserved run";
      Alcotest.(check (list string)) "--metrics registry stays empty" []
        (Obs.Metrics.names reg))

(* ---------- Metrics.merge histogram accuracy ---------- *)

let test_merge_histogram_accuracy () =
  (* Two halves of 1..20000 sketched separately, merged bucket by
     bucket: quantiles must stay within the sketch's documented 0.5%
     relative error, exactly as if one histogram had seen the full
     stream. *)
  let open Obs.Metrics in
  let a = create () and b = create () in
  let ha = histogram a "delay" and hb = histogram b "delay" in
  for i = 1 to 20000 do
    let v = float_of_int i in
    if i mod 2 = 0 then Histogram.observe ha v else Histogram.observe hb v
  done;
  merge ~into:a b;
  let h = histogram a "delay" in
  Alcotest.(check int) "merged count" 20000 (Histogram.count h);
  check_float ~eps:1e-6 "merged sum exact" 200010000.0 (Histogram.sum h);
  check_float "merged min" 1.0 (Histogram.minimum h);
  check_float "merged max" 20000.0 (Histogram.maximum h);
  let rel q expected =
    let v = Histogram.quantile h q in
    if Float.abs (v -. expected) /. expected > 0.005 then
      Alcotest.failf "merged q%.2f: got %.2f, want %.2f within 0.5%%" q v
        expected
  in
  rel 0.50 10000.0;
  rel 0.95 19000.0;
  rel 0.99 19800.0

let test_summary_counts_marks () =
  (* Ecn_mark events land in [Summary.marks] (and nowhere else: a
     mark is an admission, not a drop or a delivery). *)
  let evs =
    [
      Obs.Trace.Ecn_mark { t = 0.5; link = 0; flow = 0; seq = 1; occ = 24000 };
      Obs.Trace.Ecn_mark { t = 0.6; link = 1; flow = 0; seq = 2; occ = 36000 };
      Obs.Trace.Delivery { t = 0.7; flow = 0; seq = 1; bytes = 12000; delay = 0.2 };
    ]
  in
  let s = Obs.Summary.of_events ~duration:1.0 evs in
  Alcotest.(check int) "marks counted" 2 s.Obs.Summary.marks;
  Alcotest.(check (list (pair string int))) "no drops" []
    (List.map
       (fun (r, n) -> (Obs.Trace.drop_reason_name r, n))
       s.Obs.Summary.drops)

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "unicode escapes" `Quick test_json_escapes;
          Alcotest.test_case "rejects malformed input" `Quick test_json_rejects;
          Alcotest.test_case "strict number grammar" `Quick
            test_json_strict_numbers;
          Alcotest.test_case "errors pinpoint offsets" `Quick
            test_json_error_offsets;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "flight",
        [
          Alcotest.test_case "ring fidelity across all kinds" `Quick
            test_flight_fidelity;
          Alcotest.test_case "wraparound keeps the last N" `Quick
            test_flight_wraparound;
          Alcotest.test_case "invariant violation dumps the ring" `Quick
            test_flight_invariant_dump;
        ] );
      ( "stream",
        [
          Alcotest.test_case "reference trace digests" `Slow
            test_stream_trace_digests;
          Alcotest.test_case "forced flight dump digest" `Slow
            test_stream_flight_digest;
          Alcotest.test_case "three concurrent testbed flows digest" `Slow
            test_stream_testbed_concurrent;
          Alcotest.test_case "recovery price-reset digests" `Slow
            test_stream_recovery_resets;
          Alcotest.test_case "reset within a twin class digest" `Slow
            test_stream_twin_reset;
          Alcotest.test_case "ring is the tail of the sink" `Quick
            test_stream_ring_is_tail;
          Alcotest.test_case "reused ring feeds no earlier sink" `Quick
            test_stream_reused_ring_detached;
          Alcotest.test_case "armed ring allocates under a word per row" `Quick
            test_stream_armed_ring_allocation;
        ] );
      ( "kinds",
        [
          Alcotest.test_case "names, none and the default" `Quick test_kinds_names;
          Alcotest.test_case "ring feeds a restricted sink its subsequence" `Slow
            test_kinds_ring_subsequence;
          Alcotest.test_case "tee gives each side its own kinds" `Quick test_kinds_tee;
          Alcotest.test_case "none leaves the run and --metrics unobserved" `Quick
            test_kinds_none_unobserved;
        ] );
      ( "trace codec",
        [
          Alcotest.test_case "every variant round-trips" `Quick test_event_roundtrip;
          Alcotest.test_case "rejects bad lines" `Quick test_decode_rejects;
          Alcotest.test_case "summary counts marks" `Quick
            test_summary_counts_marks;
        ] );
      ( "prof codec",
        [
          Alcotest.test_case "entry round-trips" `Quick test_prof_entry_roundtrip;
          Alcotest.test_case "document decodes what to_json wrote" `Quick
            test_prof_document;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "histogram quantiles" `Quick test_histogram;
          Alcotest.test_case "histogram zero bucket" `Quick test_histogram_zero_bucket;
          Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "merge keeps histogram accuracy" `Quick
            test_merge_histogram_accuracy;
        ] );
      ( "engine",
        [
          Alcotest.test_case "sink does not perturb the run" `Quick
            test_trace_determinism;
          Alcotest.test_case "perf block populated" `Quick test_perf_populated;
          Alcotest.test_case "summary replay == engine accounting" `Slow
            test_summary_cross_check;
          Alcotest.test_case "recorder aggregation == engine accounting" `Slow
            test_recorder_aggregation;
          Alcotest.test_case "global registry auto-attach" `Quick
            test_runtime_autoattach;
        ] );
      ( "jsonl file",
        [
          Alcotest.test_case "valid trace accepted" `Quick test_of_file_ok;
          Alcotest.test_case "strict rejection with line numbers" `Quick
            test_of_file_strict;
          Alcotest.test_case "first divergence" `Quick test_diff_first_divergence;
        ] );
    ]
