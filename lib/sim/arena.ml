(* Flat int encoding of the engine's event variants.

   The event queue used to hold heap-allocated constructors; at ~3
   events per delivered frame that was a constructor block (plus its
   operands) per event, live across the queue residency. Here every
   event is a single immediate int — a 4-bit tag plus packed operands —
   so scheduling allocates zero words and the timing wheel's payload
   arrays hold unboxed immediates. Rare events whose payloads cannot
   pack into 59 bits (ACK reports, equalizer-held packets, fault
   boundaries) park the payload in a typed slot store and pack the
   slot index instead; their stores are tiny and recycled, and they
   sit on cold paths (per control tick, per fault boundary).

   Layouts (bit 0 is the LSB; tag in bits 0-3):

     tag 0  Tx_end          link in 4..
     tag 1  Inject          flow in 4..
     tag 2  Control_tick    no operands
     tag 3  Tcp_ack_arrive  flow in 4..19, ECE echo in 20, cum ack in 21..
     tag 4  Reorder_release flow in 4..19, packet slot in 20..
     tag 5  Tcp_rto         flow in 4..19, deadline float slot in 20..
     tag 6  Flow_start      flow in 4..
     tag 7  Flow_stop       flow in 4..
     tag 8  Reclaim_probe   flow in 4..19, route in 20..27, generation in 28..
     tag 9  Ack_arrive      flow in 4..19, ack slot in 20..
     tag 10 Capacity_change link in 4..23, value float slot in 24..
     tag 11 Loss_change     link in 4..23, value float slot in 24..
     tag 12 Ctrl_change     (drop, delay) pair slot in 4..

   Field widths are enforced by the engine at bootstrap (flow ids need
   16 bits, link ids 20); sequence numbers are already masked to 32
   bits at the source, so the widest layout (tag 3) tops out at 53
   bits — comfortably inside OCaml's 63-bit int. *)

let tag code = code land 0xF

let t_tx_end = 0
let t_inject = 1
let t_control_tick = 2
let t_tcp_ack = 3
let t_reorder_release = 4
let t_tcp_rto = 5
let t_flow_start = 6
let t_flow_stop = 7
let t_reclaim_probe = 8
let t_ack_arrive = 9
let t_capacity_change = 10
let t_loss_change = 11
let t_ctrl_change = 12

let max_flow = 0xFFFF
let max_link = 0xFFFFF

(* hot encoders: pure arithmetic, no bounds checks *)
let tx_end link = link lsl 4
let inject flow = (flow lsl 4) lor t_inject
let control_tick = t_control_tick

let tcp_ack ~flow ~cum ~ece =
  (cum lsl 21) lor (if ece then 1 lsl 20 else 0) lor (flow lsl 4) lor t_tcp_ack

let reorder_release ~flow ~slot =
  (slot lsl 20) lor (flow lsl 4) lor t_reorder_release

let tcp_rto ~flow ~slot = (slot lsl 20) lor (flow lsl 4) lor t_tcp_rto
let flow_start flow = (flow lsl 4) lor t_flow_start
let flow_stop flow = (flow lsl 4) lor t_flow_stop

let reclaim_probe ~flow ~route ~gen =
  if route > 0xFF then invalid_arg "Arena.reclaim_probe: route id too wide";
  (gen lsl 28) lor (route lsl 20) lor (flow lsl 4) lor t_reclaim_probe

let ack_arrive ~flow ~slot = (slot lsl 20) lor (flow lsl 4) lor t_ack_arrive
let capacity_change ~link ~slot = (slot lsl 24) lor (link lsl 4) lor t_capacity_change
let loss_change ~link ~slot = (slot lsl 24) lor (link lsl 4) lor t_loss_change
let ctrl_change ~slot = (slot lsl 4) lor t_ctrl_change

(* decoders *)
let link code = code lsr 4 (* tags 0, 10, 11 share the position *)
let link20 code = (code lsr 4) land 0xFFFFF
let flow code = (code lsr 4) land 0xFFFF
let flow_wide code = code lsr 4 (* tags 1, 6, 7: flow is the whole payload *)
let tcp_ack_cum code = code lsr 21
let tcp_ack_ece code = code land (1 lsl 20) <> 0
let slot20 code = code lsr 20 (* tags 4, 5, 9 *)
let slot24 code = code lsr 24 (* tags 10, 11 *)
let slot4 code = code lsr 4 (* tag 12 *)
let probe_route code = (code lsr 20) land 0xFF
let probe_gen code = code lsr 28

(* Typed slot stores: a growable array plus an explicit free stack.
   [put] hands out a slot, [release] recycles it. A released slot
   keeps its last payload until reuse (there is no witness value to
   overwrite with); stores live for one run, so the transient liveness
   is bounded by the store's high-water mark. *)
module Slots = struct
  type 'a t = {
    mutable data : 'a array;
    mutable free : int array;
    mutable n_free : int;
  }

  let create () = { data = [||]; free = [||]; n_free = 0 }

  let put t v =
    if t.n_free = 0 then begin
      let cap = Array.length t.data in
      let cap' = if cap = 0 then 8 else 2 * cap in
      let data' = Array.make cap' v in
      Array.blit t.data 0 data' 0 cap;
      t.data <- data';
      (* The free stack must hold every slot at once: releases can
         outnumber the slots minted by this grow. *)
      let free' = Array.make cap' 0 in
      for i = 0 to cap' - cap - 1 do
        free'.(i) <- cap' - 1 - i
      done;
      t.free <- free';
      t.n_free <- cap' - cap
    end;
    let slot = t.free.(t.n_free - 1) in
    t.n_free <- t.n_free - 1;
    t.data.(slot) <- v;
    slot

  let get t slot = t.data.(slot)

  let release t slot =
    t.free.(t.n_free) <- slot;
    t.n_free <- t.n_free + 1
end

(* Float-specialised slots: payloads live unboxed in a float array,
   and a value enters and leaves through the store's one-slot [cell]
   (a float passed to or returned from a function of another module
   is boxed; a store into the cell is not). *)
module Fslots = struct
  type t = {
    mutable data : float array;
    mutable free : int array;
    mutable n_free : int;
    cell : float array;
  }

  let create () = { data = [||]; free = [||]; n_free = 0; cell = [| 0.0 |] }
  let cell t = t.cell

  let put t =
    if t.n_free = 0 then begin
      let cap = Array.length t.data in
      let cap' = if cap = 0 then 8 else 2 * cap in
      let data' = Array.make cap' 0.0 in
      Array.blit t.data 0 data' 0 cap;
      t.data <- data';
      let free' = Array.make cap' 0 in
      for i = 0 to cap' - cap - 1 do
        free'.(i) <- cap' - 1 - i
      done;
      t.free <- free';
      t.n_free <- cap' - cap
    end;
    let slot = t.free.(t.n_free - 1) in
    t.n_free <- t.n_free - 1;
    t.data.(slot) <- t.cell.(0);
    slot

  let load t slot = t.cell.(0) <- t.data.(slot)

  let release t slot =
    t.free.(t.n_free) <- slot;
    t.n_free <- t.n_free + 1
end
