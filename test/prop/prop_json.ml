(* Hostile input for the JSON decoders.

   Each case takes one document of the corpora the repository ships —
   the goldens under test/golden, the scenarios/ catalog, two seeded
   fault plans and one line of each event kind a traced mini run
   writes — and flips, inserts, deletes or truncates bytes of it, or
   splices in a token chosen to stress a number or a literal. The
   mutant goes to every JSON decoder: [Obs.Json.parse], [Trace.decode],
   [Fault.decode], [Scenario.spec_of_json], [Scenario.of_json],
   [Figure_json.loadsweep_of_json] and [Obs.Prof.document_of_json].

   The contract: no decoder raises, and whatever [Trace.decode] or
   [Fault.decode] accepts, its encoder writes back as a document that
   decodes to the same value. A failure prints the mutant. *)

let read path =
  match Obs.Json.read_file path with
  | Ok s -> String.trim s
  | Error m -> failwith m

let json_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort compare
  |> List.map (fun f -> read (Filename.concat dir f))

(* One line per event kind, in first-appearance order. *)
let trace_lines () =
  match Tracing.find "mini" with
  | None -> failwith "no mini tracing scenario"
  | Some sc ->
    let sink, events = Obs.Trace.collector () in
    ignore (sc.Tracing.exec ~trace:sink ());
    let seen = Hashtbl.create 17 in
    List.filter_map
      (fun ev ->
        let k = Obs.Trace.kind ev in
        if Hashtbl.mem seen k then None
        else begin
          Hashtbl.add seen k ();
          Some (Obs.Trace.encode ev)
        end)
      (events ())

let fault_plans () =
  let g = Chaos.graph () in
  List.map
    (fun intensity ->
      Fault.encode (Fault.Gen.plan ~intensity (Rng.create 7) g ~duration:30.0))
    [ Fault.Gen.Heavy; Fault.Gen.Churn ]

let corpus =
  lazy
    (Array.of_list
       (json_files "../golden" @ json_files "../../scenarios" @ fault_plans ()
      @ trace_lines ()))

let tokens =
  [| "e400"; "1e400"; "-1e400"; "-0"; "0.1"; "9999999999999999999"; "null";
     "true"; "[]"; "{}"; "\"\""; "\\u00zz"; "\\u00e9"; ","; ":"; "\"" |]

(* Bytes a mutant is likely to be built from: JSON's own. *)
let json_bytes = "{}[]\",:0123456789.-+eE \\tnul"

(* Apply [k] random mutations to [s]. *)
let mutate st s k =
  let rand_byte () =
    match Random.State.int st 3 with
    | 0 -> Char.chr (Random.State.int st 256)
    | _ -> json_bytes.[Random.State.int st (String.length json_bytes)]
  in
  let s = ref s in
  for _ = 1 to k do
    let n = String.length !s in
    let pos = if n = 0 then 0 else Random.State.int st (n + 1) in
    let before = String.sub !s 0 pos and after = String.sub !s pos (n - pos) in
    s :=
      match Random.State.int st 5 with
      | 0 when pos < n ->
        (* flip *)
        before ^ String.make 1 (rand_byte ()) ^ String.sub after 1 (n - pos - 1)
      | 1 -> (* insert *) before ^ String.make 1 (rand_byte ()) ^ after
      | 2 when pos < n ->
        (* delete a run of up to 8 bytes *)
        let len = min (n - pos) (1 + Random.State.int st 8) in
        before ^ String.sub after len (n - pos - len)
      | 3 -> (* truncate *) before
      | _ ->
        (* splice a token *)
        before ^ tokens.(Random.State.int st (Array.length tokens)) ^ after
  done;
  !s

(* Runs every decoder on [s]; [Error] names a trace line or plan that
   decoded but does not survive its own encoder. *)
let decoders s =
  (match Obs.Json.parse s with
  | Error _ -> ()
  | Ok j ->
    ignore (Scenario.spec_of_json j);
    ignore (Scenario.of_json j);
    ignore (Figure_json.loadsweep_of_json j);
    ignore (Obs.Prof.document_of_json j));
  match (Obs.Trace.decode s, Fault.decode s) with
  | Ok e, _ when Obs.Trace.decode (Obs.Trace.encode e) <> Ok e ->
    Error "trace line"
  | _, Ok p when Fault.decode (Fault.encode p) <> Ok p -> Error "fault plan"
  | _ -> Ok ()

let prop_decoders_total =
  QCheck.Test.make ~count:10000
    ~name:"JSON decoders never raise; accepted trace lines and plans re-encode"
    QCheck.(int_bound 999_999)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let corpus = Lazy.force corpus in
      let doc = corpus.(Random.State.int st (Array.length corpus)) in
      let s = mutate st doc (1 + Random.State.int st 4) in
      match decoders s with
      | Ok () -> true
      | Error what ->
        QCheck.Test.fail_reportf "seed %d: %s does not round-trip: %S" seed
          what s
      | exception e ->
        QCheck.Test.fail_reportf "seed %d: %s raised on %S" seed
          (Printexc.to_string e) s)

let tests = [ prop_decoders_total ]
