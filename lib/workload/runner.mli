(** Closed-loop YCSB runner over the discrete-event simulator.

    Reproduces the paper's measurement methodology: N client threads at
    full subscription issue operations back-to-back for a fixed window;
    per-operation latencies go into HDR histograms (read and update
    separately); an optional sampler bins completed operations and device
    traffic per interval for the Figure 7 timelines. Deterministic for a
    given seed. *)

open Dstore_util

type sample = {
  t_ns : int;  (** Bin end, relative to measurement start. *)
  ops : int;  (** Operations completed in the bin. *)
  ssd_bytes : int;  (** SSD read+write traffic in the bin. *)
  pmem_bytes : int;  (** PMEM writeback + bulk-read traffic in the bin. *)
}

type persistence = {
  fence_calls : int;  (** PMEM fences issued inside the window. *)
  flush_calls : int;  (** Line-flush (writeback) calls inside the window. *)
  flushed_bytes : int;
  fences_per_op : float;
      (** [fence_calls / ops]: the figure of merit for group commit —
          batching N updates per commit amortizes the append and commit
          fences over the batch. *)
  flushes_per_op : float;
  flushed_bytes_per_op : float;
}
(** Persistence efficiency over the measurement window, summed across the
    system's PMEM devices and divided by the ops completed inside it. *)

type result = {
  system : string;
  workload : string;
  clients : int;
  duration_ns : int;
  reads : Histogram.t;
  updates : Histogram.t;
  total_ops : int;
  throughput : float;  (** Operations per second over the window. *)
  timeline : sample list;
  footprint : int * int * int;
  load_ns : int;  (** Virtual time of the load phase. *)
  metrics : Dstore_obs.Metrics.t;
      (** Aggregate of the per-client registry shards ([client.read_ns],
          [client.update_ns]); [reads]/[updates] are views into it. *)
  sys_obs : Dstore_obs.Obs.t option;
      (** The system's own observability handle, when it exposes one. *)
  persistence : persistence;
}

val run :
  ?seed:int ->
  ?timeline_bin_ns:int ->
  ?load:bool ->
  ?loaders:int ->
  ?think_ns:int ->
  ?batch:int ->
  build:(Dstore_platform.Platform.t -> Kv_intf.system) ->
  workload:Ycsb.t ->
  clients:int ->
  duration_ns:int ->
  unit ->
  result
(** Build the system on a fresh simulator, load [workload.records] objects
    (unless [load:false]), run [clients] closed-loop threads for
    [duration_ns] of virtual time, stop the system, and report.
    [think_ns] (default 100 us, jittered ±10%) models the YCSB client
    loop between operations — see DESIGN.md's calibration note — and is
    excluded from recorded latencies.

    [batch] (default 1): with [batch > 1] on a system exposing
    {!Kv_intf.client.put_batch}, each client stages updates and issues
    them as one group-commit call per [batch] ops; every op in the batch
    records the whole call's duration (group-commit acknowledgement), and
    a read flushes the client's staged updates first. Systems without a
    batched endpoint silently run per-op. *)

val result_json : result -> Dstore_obs.Json.t
(** Machine-readable results blob: identity, throughput, footprint,
    timeline samples, the aggregated client metrics, and (when the system
    exposes an observability handle) its full store-side metrics and blame
    totals plus the tail attribution report. *)
