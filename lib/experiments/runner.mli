(** Helpers shared by the packet-level (testbed) experiments. *)

val network : Builder.instance -> Schemes.t -> Empower.network
(** The network a scheme runs on (its scenario projection). *)

val routes_and_rates :
  ?opts:Schemes.options ->
  Empower.network ->
  Schemes.t ->
  src:int ->
  dst:int ->
  Paths.t list * float list
(** The scheme's routes and their standalone rate estimates (the
    engine's initial injection rates). Empty when unreachable. *)

val flow_spec :
  ?workload:Workload.t ->
  ?transport:Engine.transport ->
  ?tcp_params:Tcp.params ->
  src:int ->
  dst:int ->
  Paths.t list * float list ->
  Engine.flow_spec
(** Assemble an engine flow spec that runs for the whole simulation
    (starts at 0, never stops). [tcp_params] selects the TCP sender
    variant for [Tcp_transport] flows (default Reno). *)

val goodput_stats :
  Engine.flow_result -> last_seconds:int -> duration:float -> float * float
(** Mean and standard deviation of the per-second goodput over the
    final [last_seconds] of the run. *)
