(** Deterministic domain-pool job executor.

    [Exec.map] fans a list of independent jobs out over OCaml 5 domains
    and merges the results {e in submission order}, so its output is
    bit-identical to the sequential [List.map] for any job count. The
    experiment replication loops (one seeded simulation per job) use it
    to regenerate the paper's figures on all cores without perturbing a
    single byte of output.

    Determinism contract, and what callers must uphold:

    - Results are returned in submission order regardless of the order
      in which workers finish; with [jobs:1] no domain is spawned at
      all and jobs run as an explicit left-to-right fold.
    - Jobs must be pure up to job-local state: derive per-job [Rng]
      streams by splitting a master {e before} submission (in
      submission order), never by sharing one stream across jobs.
    - The ambient {!Obs.Runtime} metrics registry is handled here: when
      one is installed (or [EMPOWER_METRICS] is set), each job runs
      against a fresh domain-local registry and the per-job registries
      are folded into the submitter's registry in submission order via
      [Obs.Metrics.merge], reproducing the sequential accumulation.
      Engine [?trace] sinks, if any, must stay job-local.
    - An exception raised by a job is re-raised at the submitter (with
      its backtrace) after all workers have drained; when several jobs
      fail, the earliest submitted failure wins. *)

(** Live progress for {!map} fans (the per-domain heartbeat counters
    behind the parallelized experiment commands). Observation only:
    reporters never see or touch task results, so installing one keeps
    output bit-identical — only start/finish instants (wall clock)
    differ between runs. *)
module Progress : sig
  type snapshot = {
    total : int;  (** submitted tasks *)
    completed : int;  (** tasks finished (ok or failed) *)
    running : (int * float) list;
        (** in-flight tasks as [(submission index, elapsed seconds)],
            index order — the elapsed column is the straggler report *)
  }

  type reporter = snapshot -> unit
  (** Called under the tracker's mutex on every task start and finish,
      from whichever domain ran the task: no reporter-side locking is
      needed, but the callback must be quick and must not call back
      into {!map}. *)

  val set_reporter : reporter option -> unit
  (** Install (or clear) the process-wide reporter used by subsequent
      {!map}/{!mapi} calls (the CLI's [--progress] flag). *)

  val stderr_reporter : reporter
  (** One [\[exec\] done/total, running: #i (elapsed)] line to stderr
      per event, longest-running tasks first. *)
end

val default_jobs : unit -> int
(** The worker count used when [Exec.map] is called without [?jobs]:
    the last value given to {!set_default_jobs} if any, else the
    [EMPOWER_JOBS] environment variable, else 1. Always at least 1. *)

val set_default_jobs : int -> unit
(** Override the default worker count for this process (the CLI's
    [--jobs] flag). Values below 1 are clamped to 1. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ?jobs f xs] applies [f] to every element of [xs] and returns
    the results in order. [jobs] (default {!default_jobs}) bounds the
    number of worker domains; it is additionally capped by the number
    of elements. [jobs:1] runs sequentially in the calling domain with
    no executor machinery involved. *)

val mapi : ?jobs:int -> (int -> 'a -> 'b) -> 'a list -> 'b list
(** Like {!map}, passing each element's submission index. *)
