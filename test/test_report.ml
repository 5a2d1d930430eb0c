(* Pins the run report (lib/experiments/report.ml) of every artifact
   kind it reads: the loadsweep golden, the four chaos and four
   scenario scorecard goldens, a traced mini run and a hand-written
   profile document. Both renderings — the text report and the
   ["report"] JSON figure — are pinned by MD5, so a decoder or renderer
   change that moves a single byte of valid-input output fails here.
   The JSON carries the input path, so every input sits at a fixed
   relative path. *)

let md5 s = Digest.to_hex (Digest.string s)

let read_file path =
  match Obs.Json.read_file path with Ok s -> s | Error m -> Alcotest.fail m

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* The text and JSON renderings of [path]'s report. *)
let render path =
  match Report.of_file path with
  | Error e -> Alcotest.failf "%s: %s" path e
  | Ok r ->
    let tmp = Filename.temp_file "report" ".txt" in
    Fun.protect
      ~finally:(fun () -> Sys.remove tmp)
      (fun () ->
        let oc = open_out_bin tmp in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> Report.print ~out:oc r);
        (read_file tmp, Obs.Json.to_string (Report.to_json r)))

let check_pinned path ~text ~json () =
  let t, j = render path in
  Alcotest.(check string) (path ^ " text") text (md5 t);
  Alcotest.(check string) (path ^ " json") json (md5 j)

let trace_path = "report-trace-mini.jsonl"

let write_trace_mini () =
  match Tracing.find "mini" with
  | None -> Alcotest.fail "no mini tracing scenario"
  | Some sc ->
    let oc = open_out trace_path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> ignore (sc.Tracing.exec ~trace:(Obs.Trace.to_channel oc) ()))

let profile_path = "report-profile.json"

let profile_doc =
  {|{"figure":"profile","events":1523,"wall_s":0.00213,"categories":[{"name":"mac_phy","events":1000,"wall_s":0.0012,"ns_per_event":1200,"share_pct":56.338028169014088,"minor_words":44000,"words_per_event":44},{"name":"traffic","events":523,"wall_s":0.0006,"ns_per_event":1147.2275334608031,"share_pct":28.169014084507044,"minor_words":18000,"words_per_event":34.416826003824092},{"name":"scheduler","events":0,"wall_s":0.00033,"ns_per_event":330000,"share_pct":15.492957746478872,"minor_words":6466,"words_per_event":6466}]}|}

let pinned =
  [
    ( "golden/chaos_seed_11.json",
      "94658813a0824e758b9f996d83a6a1de", "8e7eeaf3eafccf01344e22583c5fa5a5" );
    ( "golden/chaos_seed_3.json",
      "b3a4f1115761fd0db531f4d1a8066cc5", "6da62686a8b28038d0cdbe15e7b209e0" );
    ( "golden/chaos_seed_7.json",
      "9cbc45b941db8e8d249c50b8e735886f", "f479585e978ff8eb0a53ef4312c2e261" );
    ( "golden/chaos_sever_seed13.json",
      "4f9f74b6687cb61af3f62246868f77a7", "2d9975a10785c0f53e54832845e7b7bf" );
    ( "golden/loadsweep_seed17.json",
      "a0ec077539ab2d93ed04432f0695e2d1", "a16dbab73149ff80f2db4f7d651db655" );
    ( "golden/scenario_capacity-drift.json",
      "4a85362224cb18df7e5e7360b0275961", "2dff23c80c7853df67acd37effd55fb8" );
    ( "golden/scenario_flapping-churn.json",
      "b0aeffb8c9680278f8440413cca54b34", "db52a1962c7af0e98275f0dfbafcc001" );
    ( "golden/scenario_join-growth.json",
      "e01411891740855219c9d55e5e246e76", "4a231945526705002140f3346d534183" );
    ( "golden/scenario_legacy-mix.json",
      "7b7eb1407c7904c2cb266ad71dd185a1", "cb0a619ff4fc9327b7f7ee013a4949b4" );
  ]

let test_trace () =
  write_trace_mini ();
  check_pinned trace_path ~text:"7e5487014f13d99f0052f3c1b9b53eac"
    ~json:"9109c40bf12bc51dcb9f532777fa41c6" ()

let test_profile () =
  write_file profile_path profile_doc;
  check_pinned profile_path ~text:"64d845d2e675ac49e87525630db84c82"
    ~json:"e0e367ed549f876ba383036f7bd5fcae" ()

let () =
  Alcotest.run "report"
    [
      ( "pinned",
        List.map
          (fun (path, text, json) ->
            Alcotest.test_case (Filename.basename path) `Quick
              (check_pinned path ~text ~json))
          pinned
        @ [
            Alcotest.test_case "trace mini" `Quick test_trace;
            Alcotest.test_case "profile document" `Quick test_profile;
          ] );
    ]
