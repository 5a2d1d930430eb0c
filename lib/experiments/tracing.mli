(** Traceable reference scenarios for the harness ([empower_eval
    trace <scenario>]) and the cross-check that makes a trace
    trustworthy: replaying it through {!Obs.Summary} must reproduce
    the engine's own accounting. *)

type outcome = {
  scenario : string;
  result : Engine.result;
  duration : float;
}

type scenario = {
  name : string;
  about : string;
  exec : ?trace:Obs.Trace.sink -> ?prof:Obs.Prof.t -> unit -> outcome;
}

val names : unit -> string list
(** ["mini"] (CI-sized), ["fig4"], ["failure"] (mid-run link failure),
    ["tcp"]. All deterministic: fixed topology seeds and engine
    seeds. *)

val find : string -> scenario option

val cross_check : outcome -> Obs.Summary.t -> (unit, string) result
(** Per flow: delivered bytes must match exactly, goodput to within
    1e-9 Mbit/s, mean delay to within 1e-9 relative (both sides are
    exact streams), p95 delay to within 2% (the engine's histogram
    has 0.5% relative error; the replay is exact), final controller
    rates bit-exactly when any rate update was traced; the traced
    queue-overflow + link-down + backlog drops must sum to the
    engine's [queue_drops]. [Error] concatenates every discrepancy. *)
