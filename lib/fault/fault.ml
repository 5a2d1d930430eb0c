(* Deterministic fault-plan DSL, codec, compiler and generator. See
   fault.mli for the semantics, tie-break and seeding contracts. *)

type action =
  | Link_down of { at : float; link : int }
  | Link_up of { at : float; link : int; capacity : float }
  | Capacity_set of { at : float; link : int; capacity : float }
  | Capacity_ramp of {
      at : float;
      link : int;
      from_cap : float;
      to_cap : float;
      over : float;
      steps : int;
    }
  | Loss_window of { at : float; until : float; link : int; prob : float }
  | Ctrl_drop of { at : float; until : float; prob : float }
  | Ctrl_delay of { at : float; until : float; delay : float }
  | Node_crash of { at : float; node : int }
  | Node_restart of { at : float; node : int }
  | Node_flap of {
      at : float;
      until : float;
      node : int;
      period : float;
      duty : float;
    }
  | Capacity_drift of {
      at : float;
      until : float;
      link : int;
      floor_frac : float;
      period : float;
      steps : int;
    }
  | Node_join of { at : float; node : int }

type plan = action list

let empty : plan = []

let start_time = function
  | Link_down { at; _ }
  | Link_up { at; _ }
  | Capacity_set { at; _ }
  | Capacity_ramp { at; _ }
  | Loss_window { at; _ }
  | Ctrl_drop { at; _ }
  | Ctrl_delay { at; _ }
  | Node_crash { at; _ }
  | Node_restart { at; _ }
  | Node_flap { at; _ }
  | Capacity_drift { at; _ } ->
      at
  (* A join's first effect is holding the node's links down from the
     start of the run; [at] is when it comes alive. *)
  | Node_join _ -> 0.0

let end_time = function
  | Link_down { at; _ }
  | Link_up { at; _ }
  | Capacity_set { at; _ }
  | Node_crash { at; _ }
  | Node_restart { at; _ }
  | Node_join { at; _ } ->
      at
  | Capacity_ramp { at; over; _ } -> at +. over
  | Loss_window { until; _ }
  | Ctrl_drop { until; _ }
  | Ctrl_delay { until; _ }
  | Node_flap { until; _ }
  | Capacity_drift { until; _ } ->
      until

let op_name = function
  | Link_down _ -> "link_down"
  | Link_up _ -> "link_up"
  | Capacity_set _ -> "capacity_set"
  | Capacity_ramp _ -> "capacity_ramp"
  | Loss_window _ -> "loss_window"
  | Ctrl_drop _ -> "ctrl_drop"
  | Ctrl_delay _ -> "ctrl_delay"
  | Node_crash _ -> "node_crash"
  | Node_restart _ -> "node_restart"
  | Node_flap _ -> "node_flap"
  | Capacity_drift _ -> "capacity_drift"
  | Node_join _ -> "node_join"

let action_version = function
  | Node_flap _ | Capacity_drift _ | Node_join _ -> 2
  | _ -> 1

let plan_version plan = List.fold_left (fun v a -> max v (action_version a)) 1 plan

(* Stable by construction: equal-time actions keep plan order, which
   is what makes the last-wins tie-break well defined. *)
let normalize plan =
  List.stable_sort
    (fun a b -> Float.compare (start_time a) (start_time b))
    plan

let validate g plan =
  let n_links = Multigraph.num_links g in
  let n_nodes = Multigraph.n_nodes g in
  let err a msg = Error (Printf.sprintf "%s: %s" (op_name a) msg) in
  let time_ok t = Float.is_finite t && t >= 0.0 in
  let prob_ok p = Float.is_finite p && p >= 0.0 && p <= 1.0 in
  let cap_ok c = Float.is_finite c && c >= 0.0 in
  let link_ok l = l >= 0 && l < n_links in
  let node_ok n = n >= 0 && n < n_nodes in
  let check a =
    match a with
    | Link_down { at; link } ->
        if not (time_ok at) then err a "bad time"
        else if not (link_ok link) then err a "link out of range"
        else Ok ()
    | Link_up { at; link; capacity } | Capacity_set { at; link; capacity } ->
        if not (time_ok at) then err a "bad time"
        else if not (link_ok link) then err a "link out of range"
        else if not (cap_ok capacity) then err a "bad capacity"
        else Ok ()
    | Capacity_ramp { at; link; from_cap; to_cap; over; steps } ->
        if not (time_ok at) then err a "bad time"
        else if not (link_ok link) then err a "link out of range"
        else if not (cap_ok from_cap && cap_ok to_cap) then
          err a "bad capacity"
        else if not (Float.is_finite over && over > 0.0) then
          err a "over must be > 0"
        else if steps < 1 then err a "steps must be >= 1"
        else Ok ()
    | Loss_window { at; until; link; prob } ->
        if not (time_ok at && time_ok until) then err a "bad time"
        else if until <= at then err a "until must be > at"
        else if not (link_ok link) then err a "link out of range"
        else if not (prob_ok prob) then err a "prob must be in [0,1]"
        else Ok ()
    | Ctrl_drop { at; until; prob } ->
        if not (time_ok at && time_ok until) then err a "bad time"
        else if until <= at then err a "until must be > at"
        else if not (prob_ok prob) then err a "prob must be in [0,1]"
        else Ok ()
    | Ctrl_delay { at; until; delay } ->
        if not (time_ok at && time_ok until) then err a "bad time"
        else if until <= at then err a "until must be > at"
        else if not (Float.is_finite delay && delay >= 0.0) then
          err a "bad delay"
        else Ok ()
    | Node_crash { at; node } | Node_restart { at; node } ->
        if not (time_ok at) then err a "bad time"
        else if not (node_ok node) then err a "node out of range"
        else Ok ()
    | Node_flap { at; until; node; period; duty } ->
        if not (time_ok at && time_ok until) then err a "bad time"
        else if until <= at then err a "until must be > at"
        else if not (node_ok node) then err a "node out of range"
        else if not (Float.is_finite period && period > 0.0) then
          err a "period must be > 0"
        else if not (Float.is_finite duty && duty > 0.0 && duty < 1.0) then
          err a "duty must be in (0,1)"
        else if at +. (duty *. period) > until then
          err a "window too short for one crash/restart cycle"
        else Ok ()
    | Capacity_drift { at; until; link; floor_frac; period; steps } ->
        if not (time_ok at && time_ok until) then err a "bad time"
        else if until <= at then err a "until must be > at"
        else if not (link_ok link) then err a "link out of range"
        else if not (prob_ok floor_frac) then
          err a "floor must be in [0,1]"
        else if not (Float.is_finite period && period > 0.0) then
          err a "period must be > 0"
        else if steps < 1 then err a "steps must be >= 1"
        else if at +. period > until then
          err a "window too short for one drift cycle"
        else Ok ()
    | Node_join { at; node } ->
        if not (time_ok at && at > 0.0) then err a "bad time"
        else if not (node_ok node) then err a "node out of range"
        else Ok ()
  in
  let rec go = function
    | [] -> Ok ()
    | a :: rest -> ( match check a with Ok () -> go rest | Error _ as e -> e)
  in
  go plan

type compiled = {
  link_events : (float * int * float) list;
  loss_events : (float * int * float) list;
  ctrl_events : (float * float * float) list;
}

(* Directed links incident to a node, ascending id (out and in links
   are disjoint because self-loops are impossible). *)
let incident g node =
  List.sort compare (Multigraph.out_links g node @ Multigraph.in_links g node)

let compile g plan =
  (match validate g plan with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Fault.compile: " ^ msg));
  let plan = normalize plan in
  let link_ev = ref [] (* reversed *) in
  let loss_ev = ref [] in
  (* Control windows become boundary events first, then are replayed
     into atomic (t, drop, delay) states below. *)
  let ctrl_bounds = ref [] in
  let push r e = r := e :: !r in
  let emit = function
    | Link_down { at; link } -> push link_ev (at, link, 0.0)
    | Link_up { at; link; capacity } | Capacity_set { at; link; capacity } ->
        push link_ev (at, link, capacity)
    | Capacity_ramp { at; link; from_cap; to_cap; over; steps } ->
        push link_ev (at, link, from_cap);
        for k = 1 to steps do
          let t = at +. (over *. float_of_int k /. float_of_int steps) in
          let c =
            if k = steps then to_cap
            else
              from_cap
              +. ((to_cap -. from_cap) *. float_of_int k /. float_of_int steps)
          in
          push link_ev (t, link, c)
        done
    | Loss_window { at; until; link; prob } ->
        push loss_ev (at, link, prob);
        push loss_ev (until, link, 0.0)
    | Ctrl_drop { at; until; prob } ->
        push ctrl_bounds (at, `Drop prob);
        push ctrl_bounds (until, `Drop 0.0)
    | Ctrl_delay { at; until; delay } ->
        push ctrl_bounds (at, `Delay delay);
        push ctrl_bounds (until, `Delay 0.0)
    | Node_crash { at; node } ->
        List.iter (fun l -> push link_ev (at, l, 0.0)) (incident g node)
    | Node_restart { at; node } ->
        List.iter
          (fun l -> push link_ev (at, l, Multigraph.capacity g l))
          (incident g node)
    | Node_flap { at; until; node; period; duty } ->
        (* Crash/restart cycles: crash k starts at [at + k*period] and
           the node is down for [duty * period]; only cycles whose
           restart fits inside the window are emitted, so the node
           always ends restored. Times are computed from the cycle
           index (not accumulated) to keep them float-exact. *)
        let links = incident g node in
        let k = ref 0 in
        let continue_ = ref true in
        while !continue_ do
          let c = at +. (float_of_int !k *. period) in
          let r = c +. (duty *. period) in
          if r <= until then begin
            List.iter (fun l -> push link_ev (c, l, 0.0)) links;
            List.iter
              (fun l -> push link_ev (r, l, Multigraph.capacity g l))
              links;
            incr k
          end
          else continue_ := false
        done
    | Capacity_drift { at; until; link; floor_frac; period; steps } ->
        (* Repeating triangular ramp: each cycle descends from the
           nominal capacity to [floor_frac * nominal] over half a
           period in [steps] equal setpoints, then climbs back. Only
           full cycles inside the window are emitted, so the link
           always ends at its nominal capacity. *)
        let cap = Multigraph.capacity g link in
        let floor_cap = floor_frac *. cap in
        let half = period /. 2.0 in
        let k = ref 0 in
        let continue_ = ref true in
        while !continue_ do
          let c0 = at +. (float_of_int !k *. period) in
          if c0 +. period <= until then begin
            for j = 1 to steps do
              let t = c0 +. (half *. float_of_int j /. float_of_int steps) in
              let v =
                if j = steps then floor_cap
                else
                  cap +. ((floor_cap -. cap) *. float_of_int j /. float_of_int steps)
              in
              push link_ev (t, link, v)
            done;
            for j = 1 to steps do
              let t =
                c0 +. half +. (half *. float_of_int j /. float_of_int steps)
              in
              let v =
                if j = steps then cap
                else
                  floor_cap
                  +. ((cap -. floor_cap) *. float_of_int j /. float_of_int steps)
              in
              push link_ev (t, link, v)
            done;
            incr k
          end
          else continue_ := false
        done
    | Node_join { at; node } ->
        (* Deferred activation: the node's links are held down from the
           start of the run and come alive at [at] with the capacities
           of the compiled graph. *)
        let links = incident g node in
        List.iter (fun l -> push link_ev (0.0, l, 0.0)) links;
        List.iter
          (fun l -> push link_ev (at, l, Multigraph.capacity g l))
          links
  in
  List.iter emit plan;
  (* Stable sort by time keeps generation (= plan) order for ties. *)
  let by_time f l = List.stable_sort (fun a b -> Float.compare (f a) (f b)) l in
  let link_events = by_time (fun (t, _, _) -> t) (List.rev !link_ev) in
  let loss_events = by_time (fun (t, _, _) -> t) (List.rev !loss_ev) in
  let bounds = by_time fst (List.rev !ctrl_bounds) in
  (* Replay boundaries into one (drop, delay) state per distinct
     time; at equal times the last boundary wins. *)
  let drop = ref 0.0 and delay = ref 0.0 in
  let states = ref [] in
  List.iter
    (fun (t, b) ->
      (match b with `Drop p -> drop := p | `Delay d -> delay := d);
      match !states with
      | (t', _, _) :: rest when t' = t ->
          states := (t, !drop, !delay) :: rest
      | _ -> states := (t, !drop, !delay) :: !states)
    bounds;
  { link_events; loss_events; ctrl_events = List.rev !states }

(* ---------------------------------------------------------------- *)
(* JSON codec                                                        *)

module J = Obs.Json

let action_to_json a =
  let base = [ ("op", J.String (op_name a)) ] in
  let fields =
    match a with
    | Link_down { at; link } -> [ ("at", J.Float at); ("link", J.Int link) ]
    | Link_up { at; link; capacity } | Capacity_set { at; link; capacity } ->
        [ ("at", J.Float at); ("link", J.Int link); ("capacity", J.Float capacity) ]
    | Capacity_ramp { at; link; from_cap; to_cap; over; steps } ->
        [
          ("at", J.Float at);
          ("link", J.Int link);
          ("from", J.Float from_cap);
          ("to", J.Float to_cap);
          ("over", J.Float over);
          ("steps", J.Int steps);
        ]
    | Loss_window { at; until; link; prob } ->
        [
          ("at", J.Float at);
          ("until", J.Float until);
          ("link", J.Int link);
          ("prob", J.Float prob);
        ]
    | Ctrl_drop { at; until; prob } ->
        [ ("at", J.Float at); ("until", J.Float until); ("prob", J.Float prob) ]
    | Ctrl_delay { at; until; delay } ->
        [ ("at", J.Float at); ("until", J.Float until); ("delay", J.Float delay) ]
    | Node_crash { at; node } | Node_restart { at; node }
    | Node_join { at; node } ->
        [ ("at", J.Float at); ("node", J.Int node) ]
    | Node_flap { at; until; node; period; duty } ->
        [
          ("at", J.Float at);
          ("until", J.Float until);
          ("node", J.Int node);
          ("period", J.Float period);
          ("duty", J.Float duty);
        ]
    | Capacity_drift { at; until; link; floor_frac; period; steps } ->
        [
          ("at", J.Float at);
          ("until", J.Float until);
          ("link", J.Int link);
          ("floor", J.Float floor_frac);
          ("period", J.Float period);
          ("steps", J.Int steps);
        ]
  in
  J.Obj (base @ fields)

(* Legacy-only plans keep emitting ["version": 1] byte-for-byte; the
   version is raised to 2 only when a churn op is present. *)
let to_json plan =
  J.Obj
    [
      ("version", J.Int (plan_version plan));
      ("actions", J.List (List.map action_to_json plan));
    ]

let ( let* ) = Result.bind

let action_of_json j =
  let open J in
  match j with
  | J.Obj _ -> (
      let* op = string_field "op" j in
      match op with
      | "link_down" ->
          let* at = float_field "at" j in
          let* link = int_field "link" j in
          Ok (Link_down { at; link })
      | "link_up" ->
          let* at = float_field "at" j in
          let* link = int_field "link" j in
          let* capacity = float_field "capacity" j in
          Ok (Link_up { at; link; capacity })
      | "capacity_set" ->
          let* at = float_field "at" j in
          let* link = int_field "link" j in
          let* capacity = float_field "capacity" j in
          Ok (Capacity_set { at; link; capacity })
      | "capacity_ramp" ->
          let* at = float_field "at" j in
          let* link = int_field "link" j in
          let* from_cap = float_field "from" j in
          let* to_cap = float_field "to" j in
          let* over = float_field "over" j in
          let* steps = int_field "steps" j in
          Ok (Capacity_ramp { at; link; from_cap; to_cap; over; steps })
      | "loss_window" ->
          let* at = float_field "at" j in
          let* until = float_field "until" j in
          let* link = int_field "link" j in
          let* prob = float_field "prob" j in
          Ok (Loss_window { at; until; link; prob })
      | "ctrl_drop" ->
          let* at = float_field "at" j in
          let* until = float_field "until" j in
          let* prob = float_field "prob" j in
          Ok (Ctrl_drop { at; until; prob })
      | "ctrl_delay" ->
          let* at = float_field "at" j in
          let* until = float_field "until" j in
          let* delay = float_field "delay" j in
          Ok (Ctrl_delay { at; until; delay })
      | "node_crash" ->
          let* at = float_field "at" j in
          let* node = int_field "node" j in
          Ok (Node_crash { at; node })
      | "node_restart" ->
          let* at = float_field "at" j in
          let* node = int_field "node" j in
          Ok (Node_restart { at; node })
      | "node_flap" ->
          let* at = float_field "at" j in
          let* until = float_field "until" j in
          let* node = int_field "node" j in
          let* period = float_field "period" j in
          let* duty = float_field "duty" j in
          Ok (Node_flap { at; until; node; period; duty })
      | "capacity_drift" ->
          let* at = float_field "at" j in
          let* until = float_field "until" j in
          let* link = int_field "link" j in
          let* floor_frac = float_field "floor" j in
          let* period = float_field "period" j in
          let* steps = int_field "steps" j in
          Ok (Capacity_drift { at; until; link; floor_frac; period; steps })
      | "node_join" ->
          let* at = float_field "at" j in
          let* node = int_field "node" j in
          Ok (Node_join { at; node })
      | other -> Error (Printf.sprintf "unknown op %S" other))
  | _ -> Error "expected object"

let of_json j =
  match j with
  | J.Obj _ ->
      let* version =
        let* v = J.field "version" j in
        match v with
        | J.Int (1 | 2 as v) -> Ok v
        | _ -> Error "unsupported plan version"
      in
      J.list_field "actions"
        (fun a ->
          let* act = action_of_json a in
          if action_version act > version then
            Error
              (Printf.sprintf "op %S requires plan version %d" (op_name act)
                 (action_version act))
          else Ok act)
        j
  | _ -> Error "plan: expected object"

let encode plan = J.to_string (to_json plan)

let decode s =
  match J.parse s with Ok j -> of_json j | Error msg -> Error msg

(* ---------------------------------------------------------------- *)
(* Seeded generator                                                  *)

module Gen = struct
  type intensity = Light | Moderate | Heavy | Severing | Churn

  let intensity_name = function
    | Light -> "light"
    | Moderate -> "moderate"
    | Heavy -> "heavy"
    | Severing -> "severing"
    | Churn -> "churn"

  let intensity_of_name = function
    | "light" -> Some Light
    | "moderate" -> Some Moderate
    | "heavy" -> Some Heavy
    | "severing" -> Some Severing
    | "churn" -> Some Churn
    | _ -> None

  (* Draw order per fault (fixed — part of the seeding contract):
     kind, then the [t0 < t1] window, then kind-specific params.
     Severing plans draw the victim (when not pinned) and then one
     window; non-severing intensities consume no victim draw.

     Victims are drawn by indexing the sorted array of eligible
     (unprotected) nodes / links. With an empty protect set the
     eligible arrays are the identity, so the consumed draws — and
     therefore the generated plans — are byte-identical to the
     pre-[?protect] generator. *)
  let plan ?(intensity = Moderate) ?clear_by ?victim ?(protect = []) rng g
      ~duration =
    if not (Float.is_finite duration && duration > 0.0) then
      invalid_arg "Fault.Gen.plan: bad duration";
    let clear_by =
      match clear_by with Some c -> c | None -> duration /. 2.0
    in
    if not (Float.is_finite clear_by) || clear_by < 1.0 || clear_by > duration
    then invalid_arg "Fault.Gen.plan: clear_by must be in [1, duration]";
    let n_links = Multigraph.num_links g in
    let n_nodes = Multigraph.n_nodes g in
    if n_links = 0 then invalid_arg "Fault.Gen.plan: graph has no links";
    (match victim with
    | Some v when v < 0 || v >= n_nodes ->
      invalid_arg "Fault.Gen.plan: victim out of range"
    | _ -> ());
    List.iter
      (fun v ->
        if v < 0 || v >= n_nodes then
          invalid_arg "Fault.Gen.plan: protect node out of range")
      protect;
    let protected_ v = List.mem v protect in
    let nodes =
      Array.of_list
        (List.filter (fun v -> not (protected_ v)) (List.init n_nodes Fun.id))
    in
    let links =
      Array.of_list
        (List.filter
           (fun l ->
             let lk = Multigraph.link g l in
             not (protected_ lk.Multigraph.src || protected_ lk.Multigraph.dst))
           (List.init n_links Fun.id))
    in
    if Array.length nodes = 0 || Array.length links = 0 then
      invalid_arg "Fault.Gen.plan: protect leaves no eligible victims";
    let pick_node () = nodes.(Rng.int rng (Array.length nodes)) in
    let pick_link () = links.(Rng.int rng (Array.length links)) in
    let window () =
      let t0 = Rng.uniform rng 0.2 (clear_by -. 0.3) in
      let t1 = Rng.uniform rng (t0 +. 0.1) (clear_by -. 0.05) in
      (t0, t1)
    in
    match intensity with
    | Severing ->
      (* Full severance: crash one node outright, killing every link
         it terminates — every route of any flow sourced at or
         destined to it (pin the flow's endpoint with [victim]) is
         down for the whole [t0, t1] window, then the node restarts
         with its original capacities. A pinned victim overrides the
         protect set: severing a protected node must be explicit. *)
      let v = match victim with Some v -> v | None -> pick_node () in
      let t0, t1 = window () in
      [ Node_crash { at = t0; node = v }; Node_restart { at = t1; node = v } ]
    | Churn ->
      (* Long-horizon churn: sustained flapping, slow capacity drift
         and a deferred node join, spanning up to ~0.9 x duration
         (clear_by is ignored). Draw order (seeding contract):
         n_flaps; per flap node, at, period, duty, until; n_drifts;
         per drift link, floor, at, until, cycle count; then the
         join node and join time. *)
      if duration < 10.0 then
        invalid_arg "Fault.Gen.plan: churn needs duration >= 10";
      let n_flaps = 1 + Rng.int rng 2 in
      let flaps =
        List.concat
          (List.init n_flaps (fun _ ->
               let node = pick_node () in
               let at = Rng.uniform rng 1.0 (duration *. 0.2) in
               let period = Rng.uniform rng 1.5 3.5 in
               let duty = Rng.uniform rng 0.3 0.5 in
               let until =
                 Rng.uniform rng (duration *. 0.55) (duration *. 0.85)
               in
               [ Node_flap { at; until; node; period; duty } ]))
      in
      let n_drifts = 1 + Rng.int rng 2 in
      let drifts =
        List.concat
          (List.init n_drifts (fun _ ->
               let link = pick_link () in
               let floor_frac = Rng.uniform rng 0.2 0.5 in
               let at = Rng.uniform rng 0.5 (duration *. 0.15) in
               let until =
                 Rng.uniform rng (duration *. 0.6) (duration *. 0.9)
               in
               let cycles = 2 + Rng.int rng 3 in
               let period = (until -. at) /. float_of_int cycles in
               [ Capacity_drift { at; until; link; floor_frac; period; steps = 4 } ]))
      in
      let join_node = pick_node () in
      let join_at = Rng.uniform rng (duration *. 0.2) (duration *. 0.5) in
      flaps @ drifts @ [ Node_join { at = join_at; node = join_node } ]
    | Light | Moderate | Heavy ->
    let n_faults =
      match intensity with
      | Light -> 1 + Rng.int rng 2
      | Moderate -> 3 + Rng.int rng 3
      | Heavy | Severing | Churn -> 6 + Rng.int rng 5
    in
    let fault () =
      let kind = Rng.int rng 7 in
      let t0, t1 = window () in
      match kind with
      | 0 ->
          (* Link flap: both directions of a physical edge. *)
          let l = pick_link () in
          let peer = (Multigraph.link g l).Multigraph.peer in
          [
            Link_down { at = t0; link = l };
            Link_down { at = t0; link = peer };
            Link_up { at = t1; link = l; capacity = Multigraph.capacity g l };
            Link_up
              { at = t1; link = peer; capacity = Multigraph.capacity g peer };
          ]
      | 1 ->
          let l = pick_link () in
          let cap = Multigraph.capacity g l in
          let frac = Rng.uniform rng 0.2 0.8 in
          [
            Capacity_set { at = t0; link = l; capacity = frac *. cap };
            Capacity_set { at = t1; link = l; capacity = cap };
          ]
      | 2 ->
          let l = pick_link () in
          let cap = Multigraph.capacity g l in
          let frac = Rng.uniform rng 0.2 0.8 in
          [
            Capacity_ramp
              {
                at = t0;
                link = l;
                from_cap = cap;
                to_cap = frac *. cap;
                over = (t1 -. t0) *. 0.5;
                steps = 3;
              };
            Capacity_set { at = t1; link = l; capacity = cap };
          ]
      | 3 ->
          let l = pick_link () in
          let prob = Rng.uniform rng 0.05 0.4 in
          [ Loss_window { at = t0; until = t1; link = l; prob } ]
      | 4 ->
          let prob = Rng.uniform rng 0.1 0.5 in
          [ Ctrl_drop { at = t0; until = t1; prob } ]
      | 5 ->
          let delay = Rng.uniform rng 0.02 0.15 in
          [ Ctrl_delay { at = t0; until = t1; delay } ]
      | _ ->
          let node = pick_node () in
          [ Node_crash { at = t0; node }; Node_restart { at = t1; node } ]
    in
    let rec go n acc = if n = 0 then acc else go (n - 1) (acc @ fault ()) in
    go n_faults []
end
