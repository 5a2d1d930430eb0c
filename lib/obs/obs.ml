(* Structured tracing + metrics. See obs.mli for the schema and the
   design contract (observation only: no randomness, no engine-state
   mutation, zero cost when disabled). *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  (* Shortest decimal that round-trips the double exactly. *)
  let float_repr f =
    if not (Float.is_finite f) then "null"
    else begin
      let s = Printf.sprintf "%.15g" f in
      if float_of_string s = f then s else Printf.sprintf "%.17g" f
    end

  let escape buf s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

  let rec to_buffer buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int n -> Buffer.add_string buf (string_of_int n)
    | Float f -> Buffer.add_string buf (float_repr f)
    | String s ->
      Buffer.add_char buf '"';
      escape buf s;
      Buffer.add_char buf '"'
    | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf x)
        xs;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          escape buf k;
          Buffer.add_string buf "\":";
          to_buffer buf v)
        fields;
      Buffer.add_char buf '}'

  let to_string v =
    let buf = Buffer.create 128 in
    to_buffer buf v;
    Buffer.contents buf

  exception Parse_error of int * string

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse_error (!pos, msg)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | Some c' -> fail (Printf.sprintf "expected '%c', got '%c'" c c')
      | None -> fail (Printf.sprintf "expected '%c', got end of input" c)
    in
    let literal word v =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        v
      end
      else fail (Printf.sprintf "invalid literal (expected %s)" word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' -> (
          advance ();
          match peek () with
          | None -> fail "unterminated escape"
          | Some c ->
            advance ();
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
              if !pos + 4 > n then fail "truncated \\u escape";
              let hex = String.sub s !pos 4 in
              pos := !pos + 4;
              let code =
                match int_of_string_opt ("0x" ^ hex) with
                | Some c -> c
                | None -> fail "bad \\u escape"
              in
              (* Codepoints above 0x7f are re-encoded as UTF-8; the
                 encoder never emits surrogate pairs. *)
              if code < 0x80 then Buffer.add_char buf (Char.chr code)
              else if code < 0x800 then begin
                Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
              end
              else begin
                Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
              end
            | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
            go ())
        | Some c ->
          advance ();
          Buffer.add_char buf c;
          go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let is_num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while (match peek () with Some c -> is_num_char c | None -> false) do
        advance ()
      done;
      let tok = String.sub s start (!pos - start) in
      (* A malformed token is reported at its own start, not at the
         scan position past it. *)
      let bad () =
        raise (Parse_error (start, Printf.sprintf "bad number %S" tok))
      in
      (* Strict JSON number grammar — an optional minus, then "0" or a
         nonzero-led digit run, then an optional dot-led fraction and
         an optional exponent, each requiring at least one digit.
         OCaml's own converters are laxer —
         they accept "+5", "01", "1.", ".5", hex and '_' separators —
         so the token is validated before conversion; garbage glued to
         a valid prefix is rejected even when [int_of_string] would
         swallow the whole token. *)
      let l = String.length tok in
      let p = ref 0 in
      let digits () =
        let d0 = !p in
        while
          !p < l && (match tok.[!p] with '0' .. '9' -> true | _ -> false)
        do
          incr p
        done;
        if !p = d0 then bad ()
      in
      if l = 0 then bad ();
      if tok.[0] = '-' then incr p;
      if !p < l && tok.[!p] = '0' then incr p else digits ();
      let is_int = ref true in
      if !p < l && tok.[!p] = '.' then begin
        is_int := false;
        incr p;
        digits ()
      end;
      if !p < l && (tok.[!p] = 'e' || tok.[!p] = 'E') then begin
        is_int := false;
        incr p;
        if !p < l && (tok.[!p] = '+' || tok.[!p] = '-') then incr p;
        digits ()
      end;
      if !p <> l then bad ();
      if !is_int then
        match int_of_string_opt tok with
        | Some i -> Int i
        | None -> (
          (* magnitude beyond an OCaml int: keep the value as a float *)
          match float_of_string_opt tok with
          | Some f -> Float f
          | None -> bad ())
      else
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> bad ()
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec members () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              members ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          members ();
          Obj (List.rev !fields)
        end
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [] in
          let rec elements () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              elements ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          elements ();
          List (List.rev !items)
        end
      | Some '"' -> String (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> parse_number ()
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Parse_error (at, msg) ->
      Error (Printf.sprintf "offset %d: %s" at msg)

  let member k = function
    | Obj fields -> List.assoc_opt k fields
    | _ -> None

  (* [int_of_float] wraps a float outside the int range; such a
     float is no integer this module could have written. *)
  let to_int_opt = function
    | Int n -> Some n
    | Float f
      when Float.is_integer f
           && f >= Float.of_int min_int
           && f < -.Float.of_int min_int ->
      Some (int_of_float f)
    | _ -> None

  let to_float_opt = function
    | Float f -> Some f
    | Int n -> Some (float_of_int n)
    | _ -> None

  let to_string_opt = function String s -> Some s | _ -> None
  let to_bool_opt = function Bool b -> Some b | _ -> None

  (* The strict field kit every document decoder reads through. Error
     strings are built only on failure, in one vocabulary: [missing
     field "x"] and [field "x": expected <type>]. *)

  let map_result f xs =
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | x :: rest -> (
        match f x with Ok y -> go (y :: acc) rest | Error _ as e -> e)
    in
    go [] xs

  let expect ty conv v =
    match conv v with Some x -> Ok x | None -> Error ("expected " ^ ty)

  (* A number that [to_string] writes back as itself: [1e400] parses
     to infinity, which would be written as [null]. *)
  let number =
    expect "number" (fun v ->
        match to_float_opt v with
        | Some f when Float.is_finite f -> Some f
        | _ -> None)

  let integer = expect "integer" to_int_opt

  let in_field name = function
    | Ok _ as ok -> ok
    | Error e -> Error (Printf.sprintf "field %S: %s" name e)

  let missing name = Error (Printf.sprintf "missing field %S" name)

  let field name j =
    match member name j with Some v -> Ok v | None -> missing name

  let typed conv name j =
    match member name j with
    | Some v -> in_field name (conv v)
    | None -> missing name

  let int_field = typed integer
  let float_field = typed number
  let string_field = typed (expect "string" to_string_opt)
  let bool_field = typed (expect "bool" to_bool_opt)
  let obj_field =
    typed (expect "object" (function Obj _ as o -> Some o | _ -> None))

  let list_field ?default name f j =
    match (member name j, default) with
    | Some (List xs), _ -> in_field name (map_result f xs)
    | Some _, _ -> in_field name (Error "expected list")
    | None, Some d -> Ok d
    | None, None -> missing name

  let read_file path =
    match open_in_bin path with
    | exception Sys_error e -> Error e
    | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match really_input_string ic (in_channel_length ic) with
          | s -> Ok s
          | exception Sys_error e -> Error (path ^ ": " ^ e)
          | exception End_of_file -> Error (path ^ ": truncated read"))

  let of_file path =
    match read_file path with
    | Error _ as e -> e
    | Ok s -> (
      match parse (String.trim s) with
      | Ok _ as ok -> ok
      | Error e -> Error (path ^ ": " ^ e))
end

let ( let* ) = Result.bind

module Trace = struct
  type drop_reason =
    | Queue_overflow
    | Link_down
    | Misroute
    | Backlog_cleared
    | Fault_injected

  let drop_reason_name = function
    | Queue_overflow -> "queue_overflow"
    | Link_down -> "link_down"
    | Misroute -> "misroute"
    | Backlog_cleared -> "backlog_cleared"
    | Fault_injected -> "fault_injected"

  let drop_reason_of_name = function
    | "queue_overflow" -> Some Queue_overflow
    | "link_down" -> Some Link_down
    | "misroute" -> Some Misroute
    | "backlog_cleared" -> Some Backlog_cleared
    | "fault_injected" -> Some Fault_injected
    | _ -> None

  type event =
    | Enqueue of { t : float; link : int; flow : int; seq : int; bytes : int; qlen : int }
    | Mac_grant of
        { t : float; link : int; flow : int; seq : int; collided : bool; airtime : float }
    | Dequeue of { t : float; link : int; flow : int; seq : int }
    | Collision of { t : float; link : int; flow : int; seq : int }
    | Drop of { t : float; link : int option; flow : int; seq : int; reason : drop_reason }
    | Delivery of { t : float; flow : int; seq : int; bytes : int; delay : float }
    | Price_update of { t : float; link : int; gamma : float; price : float }
    | Rate_update of { t : float; flow : int; rates : float array }
    | Ack of { t : float; flow : int; qr : float array; bytes : int array }
    | Link_event of { t : float; link : int; capacity : float }
    | Loss_event of { t : float; link : int; prob : float }
    | Ctrl_event of { t : float; drop : float; delay : float }
    | Route_dead of { t : float; flow : int; route : int; detect_s : float }
    | Route_probe of { t : float; flow : int; route : int; attempt : int }
    | Route_restored of { t : float; flow : int; route : int; down_s : float }
    | Price_reset of { t : float; link : int }
    | Ecn_mark of { t : float; link : int; flow : int; seq : int; occ : int }

  let time = function
    | Enqueue { t; _ }
    | Mac_grant { t; _ }
    | Dequeue { t; _ }
    | Collision { t; _ }
    | Drop { t; _ }
    | Delivery { t; _ }
    | Price_update { t; _ }
    | Rate_update { t; _ }
    | Ack { t; _ }
    | Link_event { t; _ }
    | Loss_event { t; _ }
    | Ctrl_event { t; _ }
    | Route_dead { t; _ }
    | Route_probe { t; _ }
    | Route_restored { t; _ }
    | Price_reset { t; _ }
    | Ecn_mark { t; _ } -> t

  let kind = function
    | Enqueue _ -> "enqueue"
    | Mac_grant _ -> "grant"
    | Dequeue _ -> "dequeue"
    | Collision _ -> "collision"
    | Drop _ -> "drop"
    | Delivery _ -> "delivery"
    | Price_update _ -> "price"
    | Rate_update _ -> "rate"
    | Ack _ -> "ack"
    | Link_event _ -> "link"
    | Loss_event _ -> "loss"
    | Ctrl_event _ -> "ctrl"
    | Route_dead _ -> "route_dead"
    | Route_probe _ -> "route_probe"
    | Route_restored _ -> "route_restored"
    | Price_reset _ -> "price_reset"
    | Ecn_mark _ -> "mark"

  let kinds =
    [ "enqueue"; "grant"; "dequeue"; "collision"; "drop"; "delivery"; "price";
      "rate"; "ack"; "link"; "loss"; "ctrl"; "route_dead"; "route_probe";
      "route_restored"; "price_reset"; "mark" ]

  (* A kind's index in [kinds]: its bit in a sink's read mask and its
     tag in a flight ring row. *)
  let tag = function
    | Enqueue _ -> 0
    | Mac_grant _ -> 1
    | Dequeue _ -> 2
    | Collision _ -> 3
    | Drop _ -> 4
    | Delivery _ -> 5
    | Price_update _ -> 6
    | Rate_update _ -> 7
    | Ack _ -> 8
    | Link_event _ -> 9
    | Loss_event _ -> 10
    | Ctrl_event _ -> 11
    | Route_dead _ -> 12
    | Route_probe _ -> 13
    | Route_restored _ -> 14
    | Price_reset _ -> 15
    | Ecn_mark _ -> 16

  let to_json ev =
    let base fields = Json.Obj (("ev", Json.String (kind ev)) :: fields) in
    let f x = Json.Float x and i x = Json.Int x in
    match ev with
    | Enqueue { t; link; flow; seq; bytes; qlen } ->
      base
        [ ("t", f t); ("link", i link); ("flow", i flow); ("seq", i seq);
          ("bytes", i bytes); ("qlen", i qlen) ]
    | Mac_grant { t; link; flow; seq; collided; airtime } ->
      base
        [ ("t", f t); ("link", i link); ("flow", i flow); ("seq", i seq);
          ("collided", Json.Bool collided); ("airtime", f airtime) ]
    | Dequeue { t; link; flow; seq } ->
      base [ ("t", f t); ("link", i link); ("flow", i flow); ("seq", i seq) ]
    | Collision { t; link; flow; seq } ->
      base [ ("t", f t); ("link", i link); ("flow", i flow); ("seq", i seq) ]
    | Drop { t; link; flow; seq; reason } ->
      base
        [ ("t", f t);
          ("link", match link with Some l -> i l | None -> Json.Null);
          ("flow", i flow); ("seq", i seq);
          ("reason", Json.String (drop_reason_name reason)) ]
    | Delivery { t; flow; seq; bytes; delay } ->
      base
        [ ("t", f t); ("flow", i flow); ("seq", i seq); ("bytes", i bytes);
          ("delay", f delay) ]
    | Price_update { t; link; gamma; price } ->
      base [ ("t", f t); ("link", i link); ("gamma", f gamma); ("price", f price) ]
    | Rate_update { t; flow; rates } ->
      base
        [ ("t", f t); ("flow", i flow);
          ("rates", Json.List (Array.to_list (Array.map (fun x -> f x) rates))) ]
    | Ack { t; flow; qr; bytes } ->
      base
        [ ("t", f t); ("flow", i flow);
          ("qr", Json.List (Array.to_list (Array.map (fun x -> f x) qr)));
          ("bytes", Json.List (Array.to_list (Array.map (fun x -> i x) bytes))) ]
    | Link_event { t; link; capacity } ->
      base [ ("t", f t); ("link", i link); ("capacity", f capacity) ]
    | Loss_event { t; link; prob } ->
      base [ ("t", f t); ("link", i link); ("prob", f prob) ]
    | Ctrl_event { t; drop; delay } ->
      base [ ("t", f t); ("drop", f drop); ("delay", f delay) ]
    | Route_dead { t; flow; route; detect_s } ->
      base
        [ ("t", f t); ("flow", i flow); ("route", i route);
          ("detect_s", f detect_s) ]
    | Route_probe { t; flow; route; attempt } ->
      base
        [ ("t", f t); ("flow", i flow); ("route", i route);
          ("attempt", i attempt) ]
    | Route_restored { t; flow; route; down_s } ->
      base
        [ ("t", f t); ("flow", i flow); ("route", i route);
          ("down_s", f down_s) ]
    | Price_reset { t; link } -> base [ ("t", f t); ("link", i link) ]
    | Ecn_mark { t; link; flow; seq; occ } ->
      base
        [ ("t", f t); ("link", i link); ("flow", i flow); ("seq", i seq);
          ("occ", i occ) ]

  let encode ev = Json.to_string (to_json ev)

  let decode line =
    let open Json in
    let* j = parse line in
    let* ev = string_field "ev" j in
    let* t = float_field "t" j in
    match ev with
    | "enqueue" ->
      let* link = int_field "link" j in
      let* flow = int_field "flow" j in
      let* seq = int_field "seq" j in
      let* bytes = int_field "bytes" j in
      let* qlen = int_field "qlen" j in
      Ok (Enqueue { t; link; flow; seq; bytes; qlen })
    | "grant" ->
      let* link = int_field "link" j in
      let* flow = int_field "flow" j in
      let* seq = int_field "seq" j in
      let* collided = bool_field "collided" j in
      let* airtime = float_field "airtime" j in
      Ok (Mac_grant { t; link; flow; seq; collided; airtime })
    | "dequeue" ->
      let* link = int_field "link" j in
      let* flow = int_field "flow" j in
      let* seq = int_field "seq" j in
      Ok (Dequeue { t; link; flow; seq })
    | "collision" ->
      let* link = int_field "link" j in
      let* flow = int_field "flow" j in
      let* seq = int_field "seq" j in
      Ok (Collision { t; link; flow; seq })
    | "drop" ->
      let* link =
        match member "link" j with
        | Some Null -> Ok None
        | _ -> Result.map Option.some (int_field "link" j)
      in
      let* flow = int_field "flow" j in
      let* seq = int_field "seq" j in
      let* reason_s = string_field "reason" j in
      let* reason =
        match drop_reason_of_name reason_s with
        | Some r -> Ok r
        | None -> Error (Printf.sprintf "unknown drop reason %S" reason_s)
      in
      Ok (Drop { t; link; flow; seq; reason })
    | "delivery" ->
      let* flow = int_field "flow" j in
      let* seq = int_field "seq" j in
      let* bytes = int_field "bytes" j in
      let* delay = float_field "delay" j in
      Ok (Delivery { t; flow; seq; bytes; delay })
    | "price" ->
      let* link = int_field "link" j in
      let* gamma = float_field "gamma" j in
      let* price = float_field "price" j in
      Ok (Price_update { t; link; gamma; price })
    | "rate" ->
      let* flow = int_field "flow" j in
      let* rates = list_field "rates" number j in
      Ok (Rate_update { t; flow; rates = Array.of_list rates })
    | "ack" ->
      let* flow = int_field "flow" j in
      let* qr = list_field "qr" number j in
      let* bytes = list_field "bytes" integer j in
      Ok (Ack { t; flow; qr = Array.of_list qr; bytes = Array.of_list bytes })
    | "link" ->
      let* link = int_field "link" j in
      let* capacity = float_field "capacity" j in
      Ok (Link_event { t; link; capacity })
    | "loss" ->
      let* link = int_field "link" j in
      let* prob = float_field "prob" j in
      Ok (Loss_event { t; link; prob })
    | "ctrl" ->
      let* drop = float_field "drop" j in
      let* delay = float_field "delay" j in
      Ok (Ctrl_event { t; drop; delay })
    | "route_dead" ->
      let* flow = int_field "flow" j in
      let* route = int_field "route" j in
      let* detect_s = float_field "detect_s" j in
      Ok (Route_dead { t; flow; route; detect_s })
    | "route_probe" ->
      let* flow = int_field "flow" j in
      let* route = int_field "route" j in
      let* attempt = int_field "attempt" j in
      Ok (Route_probe { t; flow; route; attempt })
    | "route_restored" ->
      let* flow = int_field "flow" j in
      let* route = int_field "route" j in
      let* down_s = float_field "down_s" j in
      Ok (Route_restored { t; flow; route; down_s })
    | "price_reset" ->
      let* link = int_field "link" j in
      Ok (Price_reset { t; link })
    | "mark" ->
      let* link = int_field "link" j in
      let* flow = int_field "flow" j in
      let* seq = int_field "seq" j in
      let* occ = int_field "occ" j in
      Ok (Ecn_mark { t; link; flow; seq; occ })
    | k -> Error (Printf.sprintf "unknown event kind %S" k)

  (* One JSONL line per event, through one reused buffer: the trace
     sink's writer and the flight ring's dump. *)
  let line_writer oc =
    let buf = Buffer.create 256 in
    fun ev ->
      Buffer.clear buf;
      Json.to_buffer buf (to_json ev);
      Buffer.add_char buf '\n';
      Buffer.output_buffer oc buf

  (* A sink carries the set of kinds it reads, as a bit mask over
     [tag]: an offer of a kind outside the mask is skipped, so an
     emitter that tests the mask first never builds a record the sink
     would discard. *)
  type sink = { reads : int; push_fn : event -> unit }

  let all_kinds = (1 lsl List.length kinds) - 1

  let mask_of_kinds names =
    List.fold_left
      (fun m name ->
        match List.find_index (String.equal name) kinds with
        | Some i -> m lor (1 lsl i)
        | None -> invalid_arg ("Obs.Trace: unknown event kind " ^ name))
      0 names

  let of_fn ?kinds f =
    let reads = match kinds with None -> all_kinds | Some ks -> mask_of_kinds ks in
    { reads; push_fn = f }

  let none = { reads = 0; push_fn = ignore }
  let reads s = List.filteri (fun i _ -> s.reads land (1 lsl i) <> 0) kinds
  let reads_tag s k = s.reads land (1 lsl k) <> 0
  let emit s ev = if reads_tag s (tag ev) then s.push_fn ev

  let tee a b =
    { reads = a.reads lor b.reads; push_fn = (fun ev -> emit a ev; emit b ev) }

  let to_channel oc = of_fn (line_writer oc)

  let collector ?kinds () =
    let acc = ref [] in
    (of_fn ?kinds (fun ev -> acc := ev :: !acc), fun () -> List.rev !acc)

  let counter () =
    let n = ref 0 in
    (of_fn (fun _ -> incr n), fun () -> !n)
end

(* Always-on crash recorder: the last [capacity] events in a
   pre-allocated struct-of-arrays ring. Recording a datapath event is
   a tag/time/scalar store into fixed [int array]/[float array]
   columns — no event record is built and nothing grows — so the ring
   can stay attached to every run. Only the two array-carrying
   control-plane kinds ([Rate_update], [Ack], a few per control
   period) box an event into the [boxed] column. The ring is also the
   engine's only emission point: each stored row is offered to the
   attached trace sink, which gets an event record rebuilt from the
   row only for the kinds it reads. *)
module Flight = struct
  let default_capacity = 65536
  let default_dump_path = "empower-flight-dump.jsonl"

  type t = {
    cap : int;
    tag : int array;  (* -1 = slot never written *)
    time : float array;
    i1 : int array;
    i2 : int array;
    i3 : int array;
    i4 : int array;
    i5 : int array;
    f1 : float array;
    f2 : float array;
    boxed : Trace.event option array;
    mutable next : int;   (* next write slot *)
    mutable total : int;  (* events ever written *)
    mutable sink : Trace.sink option;  (* offered every stored row *)
    (* One-slot float cells, read by the writers so that no float
       crosses a call boxed: [clock] stamps every row (the attached
       run's clock, else [own]); [cell] carries the float operand of
       [grant] and [delivery]. *)
    mutable clock : float array;
    own : float array;
    cell : float array;
    dump_path : string;
  }

  let create ?(capacity = default_capacity) ?(dump_path = default_dump_path) ()
      =
    if capacity < 1 then invalid_arg "Obs.Flight.create: capacity must be >= 1";
    let own = Array.make 1 0.0 in
    {
      cap = capacity;
      tag = Array.make capacity (-1);
      time = Array.make capacity 0.0;
      i1 = Array.make capacity 0;
      i2 = Array.make capacity 0;
      i3 = Array.make capacity 0;
      i4 = Array.make capacity 0;
      i5 = Array.make capacity 0;
      f1 = Array.make capacity 0.0;
      f2 = Array.make capacity 0.0;
      boxed = Array.make capacity None;
      next = 0;
      total = 0;
      sink = None;
      clock = own;
      own;
      cell = Array.make 1 0.0;
      dump_path;
    }

  let recorded t = t.total
  let cell t = t.cell

  let attach t ~clock sink =
    if Array.length clock < 1 then invalid_arg "Obs.Flight.attach: empty clock cell";
    t.clock <- clock;
    t.sink <- sink

  let detach t =
    t.clock <- t.own;
    t.sink <- None

  (* Tags follow the order of [Trace.kinds] ([Trace.tag]). *)
  let k_enqueue = 0
  let k_grant = 1
  let k_dequeue = 2
  let k_collision = 3
  let k_drop = 4
  let k_delivery = 5
  let k_price = 6
  let k_rate = 7
  let k_ack = 8
  let k_link = 9
  let k_loss = 10
  let k_ctrl = 11
  let k_route_dead = 12
  let k_route_probe = 13
  let k_route_restored = 14
  let k_price_reset = 15
  let k_ecn_mark = 16

  let reason_code = function
    | Trace.Queue_overflow -> 0
    | Trace.Link_down -> 1
    | Trace.Misroute -> 2
    | Trace.Backlog_cleared -> 3
    | Trace.Fault_injected -> 4

  let reason_of_code = function
    | 0 -> Trace.Queue_overflow
    | 1 -> Trace.Link_down
    | 2 -> Trace.Misroute
    | 3 -> Trace.Backlog_cleared
    | _ -> Trace.Fault_injected

  (* Only written rows are ever decoded, and a [k_rate]/[k_ack] row
     always carries its boxed event. *)
  let event_of_row t i =
    let t_s = t.time.(i) in
    match t.tag.(i) with
    | 0 ->
      Trace.Enqueue
        {
          t = t_s;
          link = t.i1.(i);
          flow = t.i2.(i);
          seq = t.i3.(i);
          bytes = t.i4.(i);
          qlen = t.i5.(i);
        }
    | 1 ->
      Trace.Mac_grant
        {
          t = t_s;
          link = t.i1.(i);
          flow = t.i2.(i);
          seq = t.i3.(i);
          collided = t.i4.(i) <> 0;
          airtime = t.f1.(i);
        }
    | 2 -> Trace.Dequeue { t = t_s; link = t.i1.(i); flow = t.i2.(i); seq = t.i3.(i) }
    | 3 ->
      Trace.Collision { t = t_s; link = t.i1.(i); flow = t.i2.(i); seq = t.i3.(i) }
    | 4 ->
      Trace.Drop
        {
          t = t_s;
          link = (if t.i1.(i) < 0 then None else Some t.i1.(i));
          flow = t.i2.(i);
          seq = t.i3.(i);
          reason = reason_of_code t.i4.(i);
        }
    | 5 ->
      Trace.Delivery
        {
          t = t_s;
          flow = t.i1.(i);
          seq = t.i2.(i);
          bytes = t.i3.(i);
          delay = t.f1.(i);
        }
    | 6 ->
      Trace.Price_update
        { t = t_s; link = t.i1.(i); gamma = t.f1.(i); price = t.f2.(i) }
    | 9 -> Trace.Link_event { t = t_s; link = t.i1.(i); capacity = t.f1.(i) }
    | 10 -> Trace.Loss_event { t = t_s; link = t.i1.(i); prob = t.f1.(i) }
    | 11 -> Trace.Ctrl_event { t = t_s; drop = t.f1.(i); delay = t.f2.(i) }
    | 12 ->
      Trace.Route_dead
        { t = t_s; flow = t.i1.(i); route = t.i2.(i); detect_s = t.f1.(i) }
    | 13 ->
      Trace.Route_probe
        { t = t_s; flow = t.i1.(i); route = t.i2.(i); attempt = t.i3.(i) }
    | 14 ->
      Trace.Route_restored
        { t = t_s; flow = t.i1.(i); route = t.i2.(i); down_s = t.f1.(i) }
    | 15 -> Trace.Price_reset { t = t_s; link = t.i1.(i) }
    | 16 ->
      Trace.Ecn_mark
        {
          t = t_s;
          link = t.i1.(i);
          flow = t.i2.(i);
          seq = t.i3.(i);
          occ = t.i4.(i);
        }
    | _ (* k_rate, k_ack *) -> Option.get t.boxed.(i)

  (* Claim the next slot and stamp it with the clock cell's time. *)
  let slot t tag =
    let i = t.next in
    t.next <- (if i + 1 = t.cap then 0 else i + 1);
    t.total <- t.total + 1;
    t.tag.(i) <- tag;
    t.time.(i) <- t.clock.(0);
    if t.boxed.(i) != None then t.boxed.(i) <- None;
    i

  (* The row's tag is tested against the kinds the sink reads before
     the event record is rebuilt. *)
  let offer t i =
    match t.sink with
    | Some s when Trace.reads_tag s t.tag.(i) -> s.Trace.push_fn (event_of_row t i)
    | _ -> ()

  let enqueue t ~link ~flow ~seq ~bytes ~qlen =
    let i = slot t k_enqueue in
    t.i1.(i) <- link;
    t.i2.(i) <- flow;
    t.i3.(i) <- seq;
    t.i4.(i) <- bytes;
    t.i5.(i) <- qlen;
    offer t i

  let grant t ~link ~flow ~seq ~collided =
    let i = slot t k_grant in
    t.i1.(i) <- link;
    t.i2.(i) <- flow;
    t.i3.(i) <- seq;
    t.i4.(i) <- (if collided then 1 else 0);
    t.f1.(i) <- t.cell.(0);
    offer t i

  let dequeue t ~link ~flow ~seq =
    let i = slot t k_dequeue in
    t.i1.(i) <- link;
    t.i2.(i) <- flow;
    t.i3.(i) <- seq;
    offer t i

  let collision t ~link ~flow ~seq =
    let i = slot t k_collision in
    t.i1.(i) <- link;
    t.i2.(i) <- flow;
    t.i3.(i) <- seq;
    offer t i

  let drop t ~link ~flow ~seq ~reason =
    let i = slot t k_drop in
    t.i1.(i) <- link;
    t.i2.(i) <- flow;
    t.i3.(i) <- seq;
    t.i4.(i) <- reason_code reason;
    offer t i

  let delivery t ~flow ~seq ~bytes =
    let i = slot t k_delivery in
    t.i1.(i) <- flow;
    t.i2.(i) <- seq;
    t.i3.(i) <- bytes;
    t.f1.(i) <- t.cell.(0);
    offer t i

  (* Inlined into [prices] so its float arguments stay unboxed. *)
  let[@inline] price t ~link ~gamma ~price =
    let i = slot t k_price in
    t.i1.(i) <- link;
    t.f1.(i) <- gamma;
    t.f2.(i) <- price;
    offer t i

  let prices t ~links ~gamma ~price:p =
    for k = 0 to Array.length links - 1 do
      let l = links.(k) in
      price t ~link:l ~gamma:gamma.(l) ~price:p.(l)
    done

  let link_event t ~link ~capacity =
    let i = slot t k_link in
    t.i1.(i) <- link;
    t.f1.(i) <- capacity;
    offer t i

  let loss_event t ~link ~prob =
    let i = slot t k_loss in
    t.i1.(i) <- link;
    t.f1.(i) <- prob;
    offer t i

  let ctrl_event t ~drop ~delay =
    let i = slot t k_ctrl in
    t.f1.(i) <- drop;
    t.f2.(i) <- delay;
    offer t i

  let route_dead t ~flow ~route ~detect_s =
    let i = slot t k_route_dead in
    t.i1.(i) <- flow;
    t.i2.(i) <- route;
    t.f1.(i) <- detect_s;
    offer t i

  let route_probe t ~flow ~route ~attempt =
    let i = slot t k_route_probe in
    t.i1.(i) <- flow;
    t.i2.(i) <- route;
    t.i3.(i) <- attempt;
    offer t i

  let route_restored t ~flow ~route ~down_s =
    let i = slot t k_route_restored in
    t.i1.(i) <- flow;
    t.i2.(i) <- route;
    t.f1.(i) <- down_s;
    offer t i

  let price_reset t ~link =
    let i = slot t k_price_reset in
    t.i1.(i) <- link;
    offer t i

  let ecn_mark t ~link ~flow ~seq ~occ =
    let i = slot t k_ecn_mark in
    t.i1.(i) <- link;
    t.i2.(i) <- flow;
    t.i3.(i) <- seq;
    t.i4.(i) <- occ;
    offer t i

  let boxed_event t tag ev =
    let i = slot t tag in
    t.boxed.(i) <- Some ev;
    offer t i

  let write t ev =
    match ev with
    | Trace.Enqueue { link; flow; seq; bytes; qlen; _ } ->
      enqueue t ~link ~flow ~seq ~bytes ~qlen
    | Trace.Mac_grant { link; flow; seq; collided; airtime; _ } ->
      t.cell.(0) <- airtime;
      grant t ~link ~flow ~seq ~collided
    | Trace.Dequeue { link; flow; seq; _ } -> dequeue t ~link ~flow ~seq
    | Trace.Collision { link; flow; seq; _ } -> collision t ~link ~flow ~seq
    | Trace.Drop { link; flow; seq; reason; _ } ->
      drop t ~link:(match link with Some l -> l | None -> -1) ~flow ~seq ~reason
    | Trace.Delivery { flow; seq; bytes; delay; _ } ->
      t.cell.(0) <- delay;
      delivery t ~flow ~seq ~bytes
    | Trace.Price_update { link; gamma; price = pr; _ } -> price t ~link ~gamma ~price:pr
    | Trace.Rate_update _ -> boxed_event t k_rate ev
    | Trace.Ack _ -> boxed_event t k_ack ev
    | Trace.Link_event { link; capacity; _ } -> link_event t ~link ~capacity
    | Trace.Loss_event { link; prob; _ } -> loss_event t ~link ~prob
    | Trace.Ctrl_event { drop; delay; _ } -> ctrl_event t ~drop ~delay
    | Trace.Route_dead { flow; route; detect_s; _ } -> route_dead t ~flow ~route ~detect_s
    | Trace.Route_probe { flow; route; attempt; _ } -> route_probe t ~flow ~route ~attempt
    | Trace.Route_restored { flow; route; down_s; _ } ->
      route_restored t ~flow ~route ~down_s
    | Trace.Price_reset { link; _ } -> price_reset t ~link
    | Trace.Ecn_mark { link; flow; seq; occ; _ } -> ecn_mark t ~link ~flow ~seq ~occ

  (* The generic path stamps the event's own time: the ring's own cell
     stands in as the clock for the one write. *)
  let event t ev =
    let clock = t.clock in
    t.own.(0) <- Trace.time ev;
    t.clock <- t.own;
    match write t ev with
    | () -> t.clock <- clock
    | exception e ->
      t.clock <- clock;
      raise e

  let fold_oldest_first t f acc =
    let len = if t.total < t.cap then t.total else t.cap in
    let first = if t.total < t.cap then 0 else t.next in
    let acc = ref acc in
    for k = 0 to len - 1 do
      let i = first + k in
      let i = if i >= t.cap then i - t.cap else i in
      acc := f !acc (event_of_row t i)
    done;
    !acc

  let events t = List.rev (fold_oldest_first t (fun acc ev -> ev :: acc) [])

  let dump_channel t oc =
    let write = Trace.line_writer oc in
    fold_oldest_first t (fun n ev -> write ev; n + 1) 0

  let dump ?path t =
    let path = match path with Some p -> p | None -> t.dump_path in
    match open_out path with
    | exception Sys_error e -> Error e
    | oc ->
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> Ok (path, dump_channel t oc))

  let env_enabled () =
    match Sys.getenv_opt "EMPOWER_FLIGHT" with
    | None | Some "" | Some "0" -> false
    | Some _ -> true

  let of_env () =
    let capacity =
      match Sys.getenv_opt "EMPOWER_FLIGHT" with
      | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some n when n > 1 -> n
        | _ -> default_capacity)
      | None -> default_capacity
    in
    let dump_path =
      match Sys.getenv_opt "EMPOWER_FLIGHT_DUMP" with
      | Some p when p <> "" -> p
      | _ -> default_dump_path
    in
    create ~capacity ~dump_path ()
end

(* Hot-path profiler: wall clock + GC minor words attributed to the
   engine subsystem that handled each event. State is a handful of
   fixed float/int arrays indexed by category, so [enter]/[leave] cost
   two clock reads, two counter reads and three array stores. *)
module Prof = struct
  let categories =
    [| "mac_phy"; "traffic"; "controller"; "tcp"; "recovery"; "fault"; "scheduler" |]
  let n_categories = Array.length categories
  let cat_mac_phy = 0
  let cat_traffic = 1
  let cat_controller = 2
  let cat_tcp = 3
  let cat_recovery = 4
  let cat_fault = 5
  let cat_scheduler = 6

  type t = {
    wall : float array;   (* seconds attributed per category *)
    words : float array;  (* Gc minor words per category *)
    count : int array;
    (* one-slot scratch: unboxed stores, no per-event allocation *)
    t0 : float array;
    w0 : float array;
  }

  let create () =
    {
      wall = Array.make n_categories 0.0;
      words = Array.make n_categories 0.0;
      count = Array.make n_categories 0;
      t0 = Array.make 1 0.0;
      w0 = Array.make 1 0.0;
    }

  (* Read order brackets the handler so the profiler's own float boxes
     stay out of the allocation window: [enter] stamps the clock first
     and the word counter last, [leave] reads the word counter first
     and the clock last. The residual self-cost inside the window is
     the [Gc.minor_words] calls themselves (a few words per event). *)
  let enter p =
    p.t0.(0) <- Unix.gettimeofday ();
    p.w0.(0) <- Gc.minor_words ()

  let leave p cat =
    let w1 = Gc.minor_words () in
    let t1 = Unix.gettimeofday () in
    p.wall.(cat) <- p.wall.(cat) +. (t1 -. p.t0.(0));
    p.words.(cat) <- p.words.(cat) +. (w1 -. p.w0.(0));
    p.count.(cat) <- p.count.(cat) + 1

  (* Attribute wall/words without tallying an event: for bracketing
     auxiliary work (the engine's scheduler pop path) that should show
     in the category shares but must not inflate the event count that
     [events] reports and benchmarks divide by. *)
  let leave_silent p cat =
    let w1 = Gc.minor_words () in
    let t1 = Unix.gettimeofday () in
    p.wall.(cat) <- p.wall.(cat) +. (t1 -. p.t0.(0));
    p.words.(cat) <- p.words.(cat) +. (w1 -. p.w0.(0))

  let events p = Array.fold_left ( + ) 0 p.count
  let total_wall p = Array.fold_left ( +. ) 0.0 p.wall

  type entry = {
    name : string;
    events : int;
    wall_s : float;
    ns_per_event : float;
    share_pct : float;
    minor_words : float;
    words_per_event : float;
  }

  let report p =
    let tot = total_wall p in
    let entries = ref [] in
    for c = n_categories - 1 downto 0 do
      (* Silent-only categories (count 0, nonzero wall) still report:
         their share matters even though they tally no events. *)
      if p.count.(c) > 0 || p.wall.(c) > 0.0 then
        entries :=
          {
            name = categories.(c);
            events = p.count.(c);
            wall_s = p.wall.(c);
            ns_per_event =
              p.wall.(c) *. 1e9 /. float_of_int (max 1 p.count.(c));
            share_pct =
              (if tot > 0.0 then 100.0 *. p.wall.(c) /. tot else 0.0);
            minor_words = p.words.(c);
            words_per_event = p.words.(c) /. float_of_int (max 1 p.count.(c));
          }
          :: !entries
    done;
    List.sort (fun a b -> compare b.wall_s a.wall_s) !entries

  let entry_to_json e =
    Json.Obj
      [
        ("name", Json.String e.name);
        ("events", Json.Int e.events);
        ("wall_s", Json.Float e.wall_s);
        ("ns_per_event", Json.Float e.ns_per_event);
        ("share_pct", Json.Float e.share_pct);
        ("minor_words", Json.Float e.minor_words);
        ("words_per_event", Json.Float e.words_per_event);
      ]

  let entry_of_json j =
    let open Json in
    let* name = string_field "name" j in
    let* events = int_field "events" j in
    let* wall_s = float_field "wall_s" j in
    let* ns_per_event = float_field "ns_per_event" j in
    let* share_pct = float_field "share_pct" j in
    let* minor_words = float_field "minor_words" j in
    let* words_per_event = float_field "words_per_event" j in
    Ok
      {
        name; events; wall_s; ns_per_event; share_pct; minor_words;
        words_per_event;
      }

  let to_json p =
    Json.Obj
      [
        ("figure", Json.String "profile");
        ("events", Json.Int (events p));
        ("wall_s", Json.Float (total_wall p));
        ("categories", Json.List (List.map entry_to_json (report p)));
      ]

  type document = {
    total_events : int;
    attributed_s : float;
    entries : entry list;
  }

  let document_of_json j =
    let open Json in
    let* total_events = int_field "events" j in
    let* attributed_s = float_field "wall_s" j in
    let* entries = list_field "categories" entry_of_json j in
    Ok { total_events; attributed_s; entries }

  let print_entries ?(out = stdout) entries =
    let pr fmt = Printf.fprintf out fmt in
    pr "%-12s %10s %10s %9s %8s %12s %9s\n" "subsystem" "events" "wall_s"
      "ns/event" "share" "minor_words" "words/ev";
    List.iter
      (fun e ->
        pr "%-12s %10d %10.4f %9.0f %7.1f%% %12.0f %9.1f\n" e.name e.events
          e.wall_s e.ns_per_event e.share_pct e.minor_words e.words_per_event)
      entries

  let print ?(out = stdout) p =
    Printf.fprintf out "--- profile: %d events, %.4f s attributed ---\n"
      (events p) (total_wall p);
    print_entries ~out (report p)
end

module Metrics = struct
  module Counter = struct
    type t = int ref

    let incr t = Stdlib.incr t
    let add t n = t := !t + n
    let value t = !t
  end

  module Gauge = struct
    (* [written] distinguishes "never set" from "set to 0" so that
       merging registries can apply last-writer-wins without clobbering
       a real value with an untouched gauge. *)
    type t = { mutable v : float; mutable written : bool }

    let set t v =
      t.v <- v;
      t.written <- true

    let value t = t.v
  end

  module Histogram = struct
    (* sum/min/max live in a float array: as mutable boxed fields of
       this mixed record, every [observe] would allocate a fresh box
       for the sum — and [observe] runs once per delivered frame. *)
    let s_sum = 0
    let s_min = 1
    let s_max = 2

    (* Bucket counts live in a dense array over the observed key
       range: [counts.(k - lo)] is the count of bucket [k]. It grows
       (at least doubling) to cover a key outside it. *)
    type t = {
      gamma : float;
      log_gamma : float;
      mutable counts : int array;
      mutable lo : int;  (* key of counts.(0) *)
      mutable zero : int;  (* observations <= zero_floor *)
      mutable count : int;
      scalars : float array;  (* s_sum, s_min, s_max — unboxed *)
    }

    let zero_floor = 1e-12

    let create ?(relative_error = 0.005) () =
      if relative_error <= 0.0 || relative_error >= 1.0 then
        invalid_arg "Histogram.create: relative_error must be in (0,1)";
      let gamma = (1.0 +. relative_error) /. (1.0 -. relative_error) in
      {
        gamma;
        log_gamma = log gamma;
        counts = [||];
        lo = 0;
        zero = 0;
        count = 0;
        scalars = [| 0.0; infinity; neg_infinity |];
      }

    (* Widen [counts] to hold bucket [k], growing toward the side
       [k] fell off. *)
    let cover t k =
      let n = Array.length t.counts in
      if n = 0 then begin
        t.counts <- Array.make 64 0;
        t.lo <- k - 32
      end
      else if k < t.lo || k >= t.lo + n then begin
        let need = max (t.lo + n) (k + 1) - min t.lo k in
        let n' = max (2 * n) need in
        let lo = if k < t.lo then t.lo + n - n' else t.lo in
        let counts = Array.make n' 0 in
        Array.blit t.counts 0 counts (t.lo - lo) n;
        t.counts <- counts;
        t.lo <- lo
      end

    let add_to_bucket t k c =
      cover t k;
      t.counts.(k - t.lo) <- t.counts.(k - t.lo) + c

    let[@inline] observe t v =
      t.count <- t.count + 1;
      let sc = t.scalars in
      sc.(s_sum) <- sc.(s_sum) +. v;
      if v < sc.(s_min) then sc.(s_min) <- v;
      if v > sc.(s_max) then sc.(s_max) <- v;
      if v <= zero_floor then t.zero <- t.zero + 1
      else add_to_bucket t (int_of_float (Float.ceil (log v /. t.log_gamma))) 1

    (* [observe] is inlined here, so the cell's value is never boxed. *)
    let observe_cell t cell = observe t cell.(0)

    let count t = t.count
    let sum t = t.scalars.(s_sum)
    let mean t = if t.count = 0 then 0.0 else sum t /. float_of_int t.count
    let minimum t = if t.count = 0 then 0.0 else t.scalars.(s_min)
    let maximum t = if t.count = 0 then 0.0 else t.scalars.(s_max)

    let quantile t q =
      if t.count = 0 then 0.0
      else if q <= 0.0 then t.scalars.(s_min)
      else if q >= 1.0 then t.scalars.(s_max)
      else begin
        let rank =
          let r = int_of_float (Float.ceil (q *. float_of_int t.count)) in
          if r < 1 then 1 else if r > t.count then t.count else r
        in
        if rank <= t.zero then Float.max 0.0 t.scalars.(s_min)
        else begin
          let rec walk acc i =
            if i >= Array.length t.counts then t.scalars.(s_max)
            else
              let acc = acc + t.counts.(i) in
              if acc >= rank then begin
                (* Bucket k covers (gamma^(k-1), gamma^k]; the midpoint
                   bounds the relative error by the configured ε. *)
                let k = t.lo + i in
                let v =
                  2.0 *. (t.gamma ** float_of_int k) /. (t.gamma +. 1.0)
                in
                Float.max t.scalars.(s_min) (Float.min t.scalars.(s_max) v)
              end
              else walk acc (i + 1)
          in
          walk t.zero 0
        end
      end

    (* Fold [h]'s buckets and scalars into [into]; the caller checks
       that both use the same relative error. *)
    let absorb ~into h =
      Array.iteri (fun i c -> if c > 0 then add_to_bucket into (h.lo + i) c) h.counts;
      into.zero <- into.zero + h.zero;
      into.count <- into.count + h.count;
      let ds = into.scalars and hs = h.scalars in
      ds.(s_sum) <- ds.(s_sum) +. hs.(s_sum);
      if hs.(s_min) < ds.(s_min) then ds.(s_min) <- hs.(s_min);
      if hs.(s_max) > ds.(s_max) then ds.(s_max) <- hs.(s_max)
  end

  module Series = struct
    type t = { mutable rev : (float * float) list; mutable n : int; mutable sum : float }

    let create () = { rev = []; n = 0; sum = 0.0 }

    let add t time v =
      t.rev <- (time, v) :: t.rev;
      t.n <- t.n + 1;
      t.sum <- t.sum +. v

    let length t = t.n
    let points t = List.rev t.rev
    let last t = match t.rev with [] -> None | p :: _ -> Some p
    let mean t = if t.n = 0 then 0.0 else t.sum /. float_of_int t.n
  end

  type instrument =
    | C of Counter.t
    | G of Gauge.t
    | H of Histogram.t
    | S of Series.t

  type t = (string, instrument) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let kind_name = function
    | C _ -> "counter"
    | G _ -> "gauge"
    | H _ -> "histogram"
    | S _ -> "series"

  let get_or_create t name make match_ =
    match Hashtbl.find_opt t name with
    | Some inst -> (
      match match_ inst with
      | Some x -> x
      | None ->
        invalid_arg
          (Printf.sprintf "Metrics: %S is a %s, requested another kind" name
             (kind_name inst)))
    | None ->
      let inst, x = make () in
      Hashtbl.add t name inst;
      x

  let counter t name =
    get_or_create t name
      (fun () ->
        let c = ref 0 in
        (C c, c))
      (function C c -> Some c | _ -> None)

  let gauge t name =
    get_or_create t name
      (fun () ->
        let g = Gauge.{ v = 0.0; written = false } in
        (G g, g))
      (function G g -> Some g | _ -> None)

  let histogram t ?relative_error name =
    get_or_create t name
      (fun () ->
        let h = Histogram.create ?relative_error () in
        (H h, h))
      (function H h -> Some h | _ -> None)

  let series t name =
    get_or_create t name
      (fun () ->
        let s = Series.create () in
        (S s, s))
      (function S s -> Some s | _ -> None)

  let names t =
    Hashtbl.fold (fun k _ acc -> k :: acc) t [] |> List.sort compare

  let instrument_json = function
    | C c -> Json.Int (Counter.value c)
    | G g -> Json.Float (Gauge.value g)
    | H h ->
      Json.Obj
        [ ("count", Json.Int (Histogram.count h));
          ("mean", Json.Float (Histogram.mean h));
          ("min", Json.Float (Histogram.minimum h));
          ("max", Json.Float (Histogram.maximum h));
          ("p50", Json.Float (Histogram.quantile h 0.5));
          ("p95", Json.Float (Histogram.quantile h 0.95));
          ("p99", Json.Float (Histogram.quantile h 0.99)) ]
    | S s ->
      Json.Obj
        [ ("n", Json.Int (Series.length s));
          ("last", match Series.last s with
            | None -> Json.Null
            | Some (_, v) -> Json.Float v);
          ("mean", Json.Float (Series.mean s)) ]

  let to_json t =
    Json.Obj
      (List.map (fun name -> (name, instrument_json (Hashtbl.find t name))) (names t))

  let print_summary ?(out = stdout) t =
    let p fmt = Printf.fprintf out fmt in
    p "--- metrics (%d instruments) ---\n" (Hashtbl.length t);
    List.iter
      (fun name ->
        match Hashtbl.find t name with
        | C c -> p "%-32s counter %d\n" name (Counter.value c)
        | G g -> p "%-32s gauge   %.6g\n" name (Gauge.value g)
        | H h ->
          p "%-32s hist    n=%d mean=%.6g p50=%.6g p95=%.6g p99=%.6g max=%.6g\n"
            name (Histogram.count h) (Histogram.mean h)
            (Histogram.quantile h 0.5) (Histogram.quantile h 0.95)
            (Histogram.quantile h 0.99) (Histogram.maximum h)
        | S s ->
          let last = match Series.last s with None -> 0.0 | Some (_, v) -> v in
          p "%-32s series  n=%d last=%.6g mean=%.6g\n" name (Series.length s)
            last (Series.mean s))
      (names t)

  (* Fold [other] into [into], instrument by instrument, in sorted name
     order so merging is deterministic. Counters and histogram buckets
     sum; series points append after [into]'s existing points (callers
     merge job registries in submission order, which reproduces the
     sequential append order); gauges are last-writer-wins, where an
     untouched gauge in [other] does not clobber a written one. *)
  let merge ~into other =
    List.iter
      (fun name ->
        match Hashtbl.find other name with
        | C c -> Counter.add (counter into name) (Counter.value c)
        | G g -> if g.Gauge.written then Gauge.set (gauge into name) g.Gauge.v
        | H h ->
          let relative_error = (h.Histogram.gamma -. 1.0) /. (h.Histogram.gamma +. 1.0) in
          let dst = histogram into ~relative_error name in
          if dst.Histogram.gamma <> h.Histogram.gamma then
            invalid_arg
              (Printf.sprintf
                 "Metrics.merge: histogram %S has mismatched relative error"
                 name);
          Histogram.absorb ~into:dst h
        | S s ->
          let dst = series into name in
          dst.Series.rev <- s.Series.rev @ dst.Series.rev;
          dst.Series.n <- dst.Series.n + s.Series.n;
          dst.Series.sum <- dst.Series.sum +. s.Series.sum)
      (names other)
end

module Recorder = struct
  (* Time-series bucketing, seconds. *)
  let window = 1.0

  (* [a] widened to hold index [n - 1], at least doubling. *)
  let grow_floats a n =
    let a' = Array.make (max n (2 * Array.length a)) 0.0 in
    Array.blit a 0 a' 0 (Array.length a);
    a'

  let grow_bools a n =
    let a' = Array.make (max n (2 * Array.length a)) false in
    Array.blit a 0 a' 0 (Array.length a);
    a'

  (* One window's float sums by link or flow id, in growable arrays:
     [sum.(k)] is key k's total and [seen.(k)] whether k had a value
     this window. An update stores into the arrays and allocates
     nothing (a [float ref] per key would box every update). Unseen
     keys hold 0.0. *)
  type window_sums = { mutable sum : float array; mutable seen : bool array }

  let sums () = { sum = [||]; seen = [||] }

  (* Inlined, so a computed [v] is never boxed. *)
  let[@inline] sums_add w k v =
    if k >= Array.length w.seen then begin
      w.sum <- grow_floats w.sum (k + 1);
      w.seen <- grow_bools w.seen (k + 1)
    end;
    if w.seen.(k) then w.sum.(k) <- w.sum.(k) +. v
    else begin
      w.seen.(k) <- true;
      w.sum.(k) <- v
    end

  let sums_get w k = if k < Array.length w.sum then w.sum.(k) else 0.0

  (* The seen keys in increasing order, as [sorted_keys] lists a
     table's. *)
  let sums_iter f w = Array.iteri (fun k seen -> if seen then f k w.sum.(k)) w.seen

  let sums_reset w =
    Array.fill w.sum 0 (Array.length w.sum) 0.0;
    Array.fill w.seen 0 (Array.length w.seen) false

  type t = {
    reg : Metrics.t;
    domain_of : (int -> int array) option;
    mutable window_start : float;
    link_air : window_sums;                   (* airtime in current window *)
    link_qlen : (int, int ref) Hashtbl.t;     (* last observed queue length *)
    flow_bits : window_sums;                  (* delivered bits in window *)
    mutable delivered : bool array;           (* by flow id: any delivery yet *)
    flow_rates : (int, float array) Hashtbl.t;
    mutable gamma_prev : float array;         (* per link: last γ, 0 before any *)
    mutable tick_t : float;                   (* time of current price tick *)
    mutable tick_delta : float;               (* max |Δγ| within that tick *)
    events : Metrics.Counter.t;
    (* Degradation tracking: the span of fault boundary events
       (link/loss/ctrl changes) and each flow's last preferred route,
       so chaos runs can quantify graceful degradation. *)
    mutable fault_first : float;              (* +inf until a fault event *)
    mutable fault_last : float;
    flow_argmax : (int, int) Hashtbl.t;
    mutable flows_seen : bool array;          (* by flow id *)
    (* Instruments updated per frame, per tick or per ack: looked up
       by name on first use and then kept, so the registry holds
       exactly what a lookup per event would create, and no name is
       formatted twice. *)
    gamma_max : Metrics.Gauge.t Lazy.t;
    grants : Metrics.Counter.t Lazy.t;
    collisions : Metrics.Counter.t Lazy.t;
    ecn_marks : Metrics.Counter.t Lazy.t;
    drops : (Trace.drop_reason, Metrics.Counter.t) Hashtbl.t;
    link_collisions : (int, Metrics.Counter.t) Hashtbl.t;
    link_marks : (int, Metrics.Counter.t) Hashtbl.t;
    (* per flow *)
    delay_hist : (int, Metrics.Histogram.t) Hashtbl.t;
    rate : (int, Metrics.Series.t) Hashtbl.t;
    rate_delta : (int, Metrics.Series.t) Hashtbl.t;
    reroutes : (int, Metrics.Counter.t) Hashtbl.t;
    acks : (int, Metrics.Counter.t) Hashtbl.t;
  }

  let create ?domain_of reg =
    {
      reg;
      domain_of;
      window_start = 0.0;
      link_air = sums ();
      link_qlen = Hashtbl.create 32;
      flow_bits = sums ();
      delivered = [||];
      flow_rates = Hashtbl.create 8;
      gamma_prev = [||];
      tick_t = -1.0;
      tick_delta = 0.0;
      events = Metrics.counter reg "trace.events";
      fault_first = infinity;
      fault_last = neg_infinity;
      flow_argmax = Hashtbl.create 8;
      flows_seen = [||];
      gamma_max = lazy (Metrics.gauge reg "ctrl.gamma_max");
      grants = lazy (Metrics.counter reg "mac.grants");
      collisions = lazy (Metrics.counter reg "mac.collisions");
      ecn_marks = lazy (Metrics.counter reg "ecn.marks");
      drops = Hashtbl.create 8;
      link_collisions = Hashtbl.create 32;
      link_marks = Hashtbl.create 32;
      delay_hist = Hashtbl.create 8;
      rate = Hashtbl.create 8;
      rate_delta = Hashtbl.create 8;
      reroutes = Hashtbl.create 8;
      acks = Hashtbl.create 8;
    }

  (* The instrument of key [k] in [tbl], created as [make reg (name k)]
     on first use. Callers pass closed functions, so a hit allocates
     nothing. *)
  let cached reg tbl make name k =
    match Hashtbl.find tbl k with
    | h -> h
    | exception Not_found ->
      let h = make reg (name k) in
      Hashtbl.add tbl k h;
      h

  let sorted_keys tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort compare

  let goodput r f = Metrics.series r.reg (Printf.sprintf "flow.%d.goodput" f)

  (* A goodput series starts at the first window: a flow's first
     delivery writes a 0 Mbit/s point for every window already closed,
     at the ends [flush_window] stamped them with. *)
  let first_delivery r f =
    if f >= Array.length r.delivered then r.delivered <- grow_bools r.delivered (f + 1);
    r.delivered.(f) <- true;
    let w_end = ref window in
    while !w_end <= r.window_start do
      Metrics.Series.add (goodput r f) !w_end 0.0;
      w_end := !w_end +. window
    done

  let flush_window r =
    let w_end = r.window_start +. window in
    (* Per-link airtime utilisation, and I_l busy fraction (the left
       side of constraint (2)) when the interference structure is
       known. *)
    sums_iter
      (fun l air ->
        let u = air /. window in
        Metrics.Series.add
          (Metrics.series r.reg (Printf.sprintf "link.%d.util" l))
          w_end u;
        match r.domain_of with
        | None -> ()
        | Some dom ->
          let busy =
            Array.fold_left (fun acc m -> acc +. sums_get r.link_air m) 0.0 (dom l)
          in
          Metrics.Series.add
            (Metrics.series r.reg (Printf.sprintf "domain.%d.busy" l))
            w_end
            (busy /. window))
      r.link_air;
    (* Queue occupancy sampled at the window boundary. *)
    List.iter
      (fun l ->
        Metrics.Series.add
          (Metrics.series r.reg (Printf.sprintf "link.%d.queue" l))
          w_end
          (float_of_int !(Hashtbl.find r.link_qlen l)))
      (sorted_keys r.link_qlen);
    (* Per-flow delivered Mbit/s over the window, for every flow that
       has delivered: a silent second is a 0 Mbit/s point. *)
    Array.iteri
      (fun f delivered ->
        if delivered then
          Metrics.Series.add (goodput r f) w_end
            (sums_get r.flow_bits f /. 1e6 /. window))
      r.delivered;
    sums_reset r.link_air;
    sums_reset r.flow_bits;
    r.window_start <- w_end

  let advance r t =
    while t >= r.window_start +. window do
      flush_window r
    done

  let flush_tick r =
    if r.tick_t >= 0.0 then begin
      Metrics.Series.add (Metrics.series r.reg "ctrl.price_delta") r.tick_t r.tick_delta;
      r.tick_t <- -1.0;
      r.tick_delta <- 0.0
    end

  let see_flow r f =
    if f >= Array.length r.flows_seen then r.flows_seen <- grow_bools r.flows_seen (f + 1);
    r.flows_seen.(f) <- true

  let on_fault_boundary r t =
    Metrics.Counter.incr (Metrics.counter r.reg "fault.events");
    if t < r.fault_first then r.fault_first <- t;
    if t > r.fault_last then r.fault_last <- t

  let on_event r ev =
    Metrics.Counter.incr r.events;
    advance r (Trace.time ev);
    match ev with
    | Trace.Enqueue { link; qlen; _ } -> (
      match Hashtbl.find_opt r.link_qlen link with
      | Some c -> c := qlen
      | None -> Hashtbl.add r.link_qlen link (ref qlen))
    | Trace.Mac_grant { link; collided; airtime; _ } ->
      Metrics.Counter.incr (Lazy.force r.grants);
      sums_add r.link_air link airtime;
      (match Hashtbl.find_opt r.link_qlen link with
      | Some c -> if !c > 0 then c := !c - 1
      | None -> ());
      if collided then ()
    | Trace.Dequeue _ -> ()
    | Trace.Collision { link; _ } ->
      Metrics.Counter.incr (Lazy.force r.collisions);
      Metrics.Counter.incr
        (cached r.reg r.link_collisions Metrics.counter
           (fun l -> Printf.sprintf "link.%d.collisions" l)
           link)
    | Trace.Drop { reason; _ } ->
      Metrics.Counter.incr
        (cached r.reg r.drops Metrics.counter
           (fun reason -> "drops." ^ Trace.drop_reason_name reason)
           reason)
    | Trace.Delivery { flow; bytes; delay; _ } ->
      Metrics.Histogram.observe
        (cached r.reg r.delay_hist
           (fun reg name -> Metrics.histogram reg name)
           (fun f -> Printf.sprintf "flow.%d.delay" f)
           flow)
        delay;
      see_flow r flow;
      if flow >= Array.length r.delivered || not r.delivered.(flow) then
        first_delivery r flow;
      sums_add r.flow_bits flow (8.0 *. float_of_int bytes)
    | Trace.Price_update { t; link; gamma; _ } ->
      if t <> r.tick_t then begin
        flush_tick r;
        r.tick_t <- t
      end;
      if link >= Array.length r.gamma_prev then
        r.gamma_prev <- grow_floats r.gamma_prev (link + 1);
      let d = Float.abs (gamma -. r.gamma_prev.(link)) in
      if d > r.tick_delta then r.tick_delta <- d;
      r.gamma_prev.(link) <- gamma;
      let gm = Lazy.force r.gamma_max in
      if gamma > Metrics.Gauge.value gm then Metrics.Gauge.set gm gamma
    | Trace.Rate_update { t; flow; rates } ->
      let total = Array.fold_left ( +. ) 0.0 rates in
      Metrics.Series.add
        (cached r.reg r.rate Metrics.series
           (fun f -> Printf.sprintf "flow.%d.rate" f)
           flow)
        t total;
      (match Hashtbl.find_opt r.flow_rates flow with
      | Some prev when Array.length prev = Array.length rates ->
        let delta = ref 0.0 in
        Array.iteri (fun i x -> delta := !delta +. Float.abs (x -. prev.(i))) rates;
        Metrics.Series.add
          (cached r.reg r.rate_delta Metrics.series
             (fun f -> Printf.sprintf "flow.%d.rate_delta" f)
             flow)
          t !delta
      | Some _ | None -> ());
      Hashtbl.replace r.flow_rates flow (Array.copy rates);
      see_flow r flow;
      (* A change of the flow's preferred (highest-rate) route is a
         reroute — the controller moved the bulk of the traffic. *)
      if Array.length rates > 0 then begin
        let best = ref 0 in
        Array.iteri (fun i x -> if x > rates.(!best) then best := i) rates;
        (match Hashtbl.find_opt r.flow_argmax flow with
        | Some prev when prev <> !best ->
          Metrics.Counter.incr
            (cached r.reg r.reroutes Metrics.counter
               (fun f -> Printf.sprintf "flow.%d.reroutes" f)
               flow)
        | Some _ | None -> ());
        Hashtbl.replace r.flow_argmax flow !best
      end
    | Trace.Ack { flow; _ } ->
      Metrics.Counter.incr
        (cached r.reg r.acks Metrics.counter
           (fun f -> Printf.sprintf "flow.%d.acks" f)
           flow)
    | Trace.Link_event { t; link; capacity } ->
      Metrics.Counter.incr (Metrics.counter r.reg "link.events");
      on_fault_boundary r t;
      Metrics.Gauge.set
        (Metrics.gauge r.reg (Printf.sprintf "link.%d.capacity" link))
        capacity
    | Trace.Loss_event { t; link; prob } ->
      on_fault_boundary r t;
      Metrics.Gauge.set
        (Metrics.gauge r.reg (Printf.sprintf "link.%d.loss" link))
        prob
    | Trace.Ctrl_event { t; drop; delay } ->
      on_fault_boundary r t;
      Metrics.Gauge.set (Metrics.gauge r.reg "ctrl.fault.drop") drop;
      Metrics.Gauge.set (Metrics.gauge r.reg "ctrl.fault.delay") delay
    | Trace.Route_dead { flow; detect_s; _ } ->
      Metrics.Counter.incr (Metrics.counter r.reg "recovery.route_deaths");
      Metrics.Counter.incr
        (Metrics.counter r.reg (Printf.sprintf "flow.%d.route_deaths" flow));
      (* Worst-case detection latency of the run, per flow. *)
      let g =
        Metrics.gauge r.reg (Printf.sprintf "flow.%d.fault.detect_s" flow)
      in
      if detect_s > Metrics.Gauge.value g then Metrics.Gauge.set g detect_s
    | Trace.Route_probe _ ->
      Metrics.Counter.incr (Metrics.counter r.reg "recovery.probes")
    | Trace.Route_restored { flow; down_s; _ } ->
      Metrics.Counter.incr (Metrics.counter r.reg "recovery.route_restores");
      Metrics.Counter.incr
        (Metrics.counter r.reg (Printf.sprintf "flow.%d.route_restores" flow));
      (* Accumulated outage time across the run's route deaths. *)
      let o =
        Metrics.gauge r.reg (Printf.sprintf "flow.%d.fault.outage_s" flow)
      in
      Metrics.Gauge.set o (Metrics.Gauge.value o +. down_s);
      let g =
        Metrics.gauge r.reg (Printf.sprintf "flow.%d.fault.down_s" flow)
      in
      if down_s > Metrics.Gauge.value g then Metrics.Gauge.set g down_s
    | Trace.Price_reset _ ->
      Metrics.Counter.incr (Metrics.counter r.reg "recovery.price_resets")
    | Trace.Ecn_mark { link; _ } ->
      Metrics.Counter.incr (Lazy.force r.ecn_marks);
      Metrics.Counter.incr
        (cached r.reg r.link_marks Metrics.counter
           (fun l -> Printf.sprintf "link.%d.marks" l)
           link)

  let sink ?kinds r = Trace.of_fn ?kinds (on_event r)

  type dip = { dip_depth : float; dip_area : float; recovery_s : float }

  (* One flow's recovery metrics from its goodput series: the depth
     and area of the goodput dip relative to a baseline (mean of the
     points stamped at or before the first fault, or of the last three
     points when the first fault hits before the first point), and the
     time after the last fault boundary until goodput is back within
     90% of that baseline (-1 = never). *)
  let degradation ~fault_first ~fault_last pts =
    let pre = List.filter (fun (t, _) -> t <= fault_first) pts in
    let mean = function
      | [] -> 0.0
      | l ->
        List.fold_left (fun a (_, v) -> a +. v) 0.0 l
        /. float_of_int (List.length l)
    in
    let baseline =
      match pre with
      | _ :: _ -> mean pre
      | [] ->
        let n = List.length pts in
        mean (List.filteri (fun i _ -> i >= n - 3) pts)
    in
    if baseline > 0.0 then begin
      let post = List.filter (fun (t, _) -> t > fault_first) pts in
      let dip_depth =
        List.fold_left (fun a (_, v) -> Float.max a (baseline -. v)) 0.0 post
      in
      let dip_area =
        List.fold_left
          (fun a (_, v) -> a +. (Float.max 0.0 (baseline -. v) *. window))
          0.0 post
      in
      let recovery_s =
        let rec find = function
          | [] -> -1.0
          | (t, v) :: rest ->
            if t >= fault_last && v >= 0.9 *. baseline then
              Float.max 0.0 (t -. fault_last)
            else find rest
        in
        find post
      in
      Some { dip_depth = Float.max 0.0 dip_depth; dip_area; recovery_s }
    end
    else None

  (* Computed once the goodput series are complete. *)
  let flush_degradation r =
    if r.fault_last > neg_infinity then begin
      Metrics.Gauge.set (Metrics.gauge r.reg "fault.first_s") r.fault_first;
      Metrics.Gauge.set (Metrics.gauge r.reg "fault.last_s") r.fault_last;
      Array.iteri
        (fun f seen ->
          if seen then begin
            let pts = Metrics.Series.points (goodput r f) in
            match
              degradation ~fault_first:r.fault_first
                ~fault_last:r.fault_last pts
            with
            | None -> ()
            | Some d ->
              let set name v =
                Metrics.Gauge.set
                  (Metrics.gauge r.reg (Printf.sprintf "flow.%d.fault.%s" f name))
                  v
              in
              set "dip_depth" d.dip_depth;
              set "dip_area" d.dip_area;
              set "recovery_s" d.recovery_s
          end)
        r.flows_seen
    end

  let flush r ~now =
    advance r now;
    (* Close the partial window so short runs still produce points. *)
    if now > r.window_start then begin
      let keep = r.window_start in
      let partial = now -. keep in
      if partial > 1e-9 then begin
        sums_iter
          (fun l air ->
            Metrics.Series.add
              (Metrics.series r.reg (Printf.sprintf "link.%d.util" l))
              now (air /. partial))
          r.link_air;
        sums_iter
          (fun f bits -> Metrics.Series.add (goodput r f) now (bits /. 1e6 /. partial))
          r.flow_bits;
        sums_reset r.link_air;
        sums_reset r.flow_bits
      end
    end;
    flush_tick r;
    flush_degradation r
end

module Summary = struct
  type flow_stats = {
    flow : int;
    delivered_frames : int;
    delivered_bytes : int;
    goodput_mbps : float;
    mean_delay : float;
    p50_delay : float;
    p95_delay : float;
    p99_delay : float;
    max_delay : float;
    rate_updates : int;
    final_rates : float array;
  }

  type recovery_stats = {
    route_deaths : int;
    route_restores : int;
    route_probes : int;
    price_resets : int;
    max_detect_s : float;  (** worst detection latency; 0 when none *)
    max_down_s : float;    (** worst outage span; 0 when none *)
  }

  type t = {
    duration : float;
    events : int;
    flows : flow_stats list;
    drops : (Trace.drop_reason * int) list;
    collisions : int;
    grants : int;
    marks : int;
    link_airtime : (int * float) list;
    recovery : recovery_stats;
  }

  type flow_acc = {
    mutable frames : int;
    mutable bytes : int;
    mutable delays_rev : float list;
    mutable rate_updates : int;
    mutable final_rates : float array;
  }

  let of_events ~duration events =
    if duration <= 0.0 then invalid_arg "Summary.of_events: duration must be positive";
    let flows : (int, flow_acc) Hashtbl.t = Hashtbl.create 8 in
    let flow f =
      match Hashtbl.find_opt flows f with
      | Some a -> a
      | None ->
        let a =
          { frames = 0; bytes = 0; delays_rev = []; rate_updates = 0; final_rates = [||] }
        in
        Hashtbl.add flows f a;
        a
    in
    let drops = Hashtbl.create 4 in
    let collisions = ref 0 and grants = ref 0 and n_events = ref 0 in
    let marks = ref 0 in
    let airtime = Hashtbl.create 32 in
    let route_deaths = ref 0
    and route_restores = ref 0
    and route_probes = ref 0
    and price_resets = ref 0
    and max_detect = ref 0.0
    and max_down = ref 0.0 in
    List.iter
      (fun ev ->
        incr n_events;
        match ev with
        | Trace.Delivery { flow = f; bytes; delay; _ } ->
          let a = flow f in
          a.frames <- a.frames + 1;
          a.bytes <- a.bytes + bytes;
          a.delays_rev <- delay :: a.delays_rev
        | Trace.Rate_update { flow = f; rates; _ } ->
          let a = flow f in
          a.rate_updates <- a.rate_updates + 1;
          a.final_rates <- rates
        | Trace.Drop { reason; _ } ->
          let c =
            match Hashtbl.find_opt drops reason with
            | Some c -> c
            | None ->
              let c = ref 0 in
              Hashtbl.add drops reason c;
              c
          in
          incr c
        | Trace.Collision _ -> incr collisions
        | Trace.Mac_grant { link; airtime = a; _ } ->
          incr grants;
          (match Hashtbl.find_opt airtime link with
          | Some r -> r := !r +. a
          | None -> Hashtbl.add airtime link (ref a))
        | Trace.Route_dead { detect_s; _ } ->
          incr route_deaths;
          if detect_s > !max_detect then max_detect := detect_s
        | Trace.Route_restored { down_s; _ } ->
          incr route_restores;
          if down_s > !max_down then max_down := down_s
        | Trace.Route_probe _ -> incr route_probes
        | Trace.Price_reset _ -> incr price_resets
        | Trace.Ecn_mark _ -> incr marks
        | Trace.Enqueue _ | Trace.Dequeue _ | Trace.Price_update _
        | Trace.Ack _ | Trace.Link_event _ | Trace.Loss_event _
        | Trace.Ctrl_event _ -> ())
      events;
    let flow_ids =
      Hashtbl.fold (fun k _ acc -> k :: acc) flows [] |> List.sort compare
    in
    {
      duration;
      events = !n_events;
      flows =
        List.map
          (fun f ->
            let a = Hashtbl.find flows f in
            let delays = List.rev a.delays_rev in
            {
              flow = f;
              delivered_frames = a.frames;
              delivered_bytes = a.bytes;
              goodput_mbps = float_of_int a.bytes *. 8e-6 /. duration;
              mean_delay = Stats.mean delays;
              p50_delay =
                (match delays with [] -> 0.0 | ds -> Stats.percentile ds 50.0);
              p95_delay =
                (match delays with [] -> 0.0 | ds -> Stats.percentile ds 95.0);
              p99_delay =
                (match delays with [] -> 0.0 | ds -> Stats.percentile ds 99.0);
              max_delay = (match delays with [] -> 0.0 | ds -> Stats.maximum ds);
              rate_updates = a.rate_updates;
              final_rates = a.final_rates;
            })
          flow_ids;
      drops =
        Hashtbl.fold (fun r c acc -> (r, !c) :: acc) drops []
        |> List.sort (fun (a, _) (b, _) -> compare a b);
      collisions = !collisions;
      grants = !grants;
      marks = !marks;
      link_airtime =
        Hashtbl.fold (fun l a acc -> (l, !a) :: acc) airtime []
        |> List.sort (fun (a, _) (b, _) -> compare a b);
      recovery =
        {
          route_deaths = !route_deaths;
          route_restores = !route_restores;
          route_probes = !route_probes;
          price_resets = !price_resets;
          max_detect_s = !max_detect;
          max_down_s = !max_down;
        };
    }

  let read_file path =
    match open_in path with
    | exception Sys_error e -> Error e
    | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let events = ref [] in
          let line_no = ref 0 in
          let error = ref None in
          (try
             while !error = None do
               let line = input_line ic in
               incr line_no;
               match Trace.decode line with
               | Ok ev -> events := ev :: !events
               | Error msg ->
                 error := Some (Printf.sprintf "%s:%d: %s" path !line_no msg)
             done
           with End_of_file -> ());
          match !error with
          | Some e -> Error e
          | None -> Ok (List.rev !events))

  let of_file ~duration path =
    match read_file path with
    | Error e -> Error e
    | Ok events -> Ok (of_events ~duration events)

  let flow_stats t f = List.find_opt (fun s -> s.flow = f) t.flows

  let print ?(out = stdout) t =
    let p fmt = Printf.fprintf out fmt in
    p "--- trace summary: %d events over %.3f s ---\n" t.events t.duration;
    p "MAC: %d grants, %d collisions" t.grants t.collisions;
    (match t.drops with
    | [] -> p ", no drops\n"
    | ds ->
      p "; drops:";
      List.iter (fun (r, c) -> p " %s=%d" (Trace.drop_reason_name r) c) ds;
      p "\n");
    if t.marks > 0 then p "ECN: %d frames marked\n" t.marks;
    List.iter
      (fun s ->
        p
          "flow %d: %d frames, %d bytes, %.3f Mbit/s, delay mean %.4g s p95 %.4g s \
           (%d rate updates)\n"
          s.flow s.delivered_frames s.delivered_bytes s.goodput_mbps s.mean_delay
          s.p95_delay s.rate_updates)
      t.flows;
    List.iter
      (fun (l, a) ->
        p "link %d: %.3f s on air (%.1f%% of the run)\n" l a
          (100.0 *. a /. t.duration))
      t.link_airtime;
    let r = t.recovery in
    if r.route_deaths > 0 || r.route_restores > 0 || r.price_resets > 0 then
      p
        "recovery: %d route deaths (worst detect %.3f s), %d restores (worst \
         outage %.3f s), %d probes, %d price resets\n"
        r.route_deaths r.max_detect_s r.route_restores r.max_down_s
        r.route_probes r.price_resets
end

module Diff = struct
  type t = {
    index : int;
    context : string list;
    a : string option;
    b : string option;
  }

  (* One line with its terminator, so a missing final newline is a
     difference too: [input_line] consumed the newline iff the channel
     advanced past the line's bytes. *)
  let next_line ic =
    let start = pos_in ic in
    match input_line ic with
    | exception End_of_file -> None
    | line -> Some (if pos_in ic > start + String.length line then line ^ "\n" else line)

  let context = 3

  let channels ica icb =
    let shared = Queue.create () in
    let rec go index =
      match (next_line ica, next_line icb) with
      | None, None -> None
      | a, b when a = b ->
        Queue.push (Option.get a) shared;
        if Queue.length shared > context then ignore (Queue.pop shared);
        go (index + 1)
      | a, b -> Some { index; context = List.of_seq (Queue.to_seq shared); a; b }
    in
    go 0

  let files a b =
    try
      Ok
        (In_channel.with_open_bin a (fun ica ->
             In_channel.with_open_bin b (fun icb -> channels ica icb)))
    with Sys_error e -> Error e

  let print ~a ~b d =
    let p fmt = Printf.printf fmt in
    let show = function
      | None -> "<end of file>"
      | Some l ->
        if String.ends_with ~suffix:"\n" l then String.sub l 0 (String.length l - 1)
        else l ^ " <no final newline>"
    in
    p "%s and %s differ at event %d (line %d)\n" a b d.index (d.index + 1);
    let first = d.index - List.length d.context in
    List.iteri (fun i l -> p "  %6d  %s\n" (first + i + 1) (show (Some l))) d.context;
    p "- %6d  %s\n" (d.index + 1) (show d.a);
    p "+ %6d  %s\n" (d.index + 1) (show d.b)
end

module Runtime = struct
  (* Domain-local rather than process-global: each worker domain spun up
     by [Exec.map] sees its own slot, installs a private registry for the
     job it is running, and the executor merges the per-job registries
     into the submitter's registry in submission order. A plain global
     [ref] here would be a data race under parallel engine runs. *)
  let registry : Metrics.t option ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref None)

  let install_metrics () =
    let slot = Domain.DLS.get registry in
    match !slot with
    | Some reg -> reg
    | None ->
      let reg = Metrics.create () in
      slot := Some reg;
      reg

  let metrics () =
    let slot = Domain.DLS.get registry in
    match !slot with
    | Some _ as r -> r
    | None ->
      if Sys.getenv_opt "EMPOWER_METRICS" <> None then Some (install_metrics ())
      else None

  let clear () = Domain.DLS.get registry := None
end
