(** Builders wiring each evaluated system onto fresh simulated devices.

    Every system gets its own PMEM and SSD instances sized from a common
    {!scale}, so comparisons share identical device parameters — the
    paper's single-testbed methodology. All builders must run in platform
    process context (device formatting consumes virtual time). *)

open Dstore_platform
open Dstore_pmem
open Dstore_ssd
open Dstore_core

type scale = {
  objects : int;  (** Population the pools and spaces are sized for. *)
  value_bytes : int;
  ssd_pages : int;
  ssd_channels : int;
  crash_model : bool;  (** Dirty-line tracking; off for performance runs. *)
  retain_data : bool;  (** Keep payload bytes on the SSD model. *)
  log_slots : int;  (** DIPPER log capacity. *)
  cache_mb : int;
      (** DRAM object-cache budget (MiB); 0 disables. Sharded systems
          split the budget evenly across shards. *)
}

val default_scale : scale
(** 10k 4 KB objects, 8-channel SSD, crash model and payload retention off
    (benchmark settings). *)

val dstore :
  ?tweak:(Config.t -> Config.t) -> ?label:string -> Platform.t -> scale ->
  Kv_intf.system
(** DStore under any configuration; [tweak] edits the derived config (see
    the ready-made tweaks below). *)

val dstore_store :
  ?tweak:(Config.t -> Config.t) -> Platform.t -> scale ->
  Dstore.t * Pmem.t * Ssd.t * Config.t
(** The raw store plus its devices, for experiments needing internals
    (its span recorder, engine statistics, crash/recovery control). *)

val cow_tweak : Config.t -> Config.t
(** Checkpoint by copy-on-write (the paper's comparison design, §4.5). *)

val no_ckpt_tweak : Config.t -> Config.t
(** Checkpoints disabled, log provisioned to outlast the run (Figure 1). *)

val cached :
  ?label:string ->
  ?tweak:(Dstore_baselines.Cached_store.config -> Dstore_baselines.Cached_store.config) ->
  Platform.t -> scale -> Kv_intf.system
(** The MongoDB-PM-like write-back cached baseline. *)

val lsm : ?label:string -> Platform.t -> scale -> Kv_intf.system
(** The PMEM-RocksDB-like LSM baseline. *)

val lsm_no_stall : ?label:string -> Platform.t -> scale -> Kv_intf.system
(** LSM variant with a deep L0 and no major compaction — the closest an
    LSM comes to "checkpoints disabled" (Figure 1). *)

val inline : ?label:string -> Platform.t -> scale -> Kv_intf.system
(** The MongoDB-PMSE-like uncached inline-persistence baseline. *)

val replicated :
  ?backups:int ->
  ?mode:Dstore_repl.Repl.durability ->
  ?link_latency_ns:int ->
  ?apply_depth:int ->
  ?label:string ->
  Platform.t -> scale ->
  Kv_intf.system * Dstore_repl.Group.t
(** A {!Dstore_repl.Group} — primary plus [backups] (default 1) backup
    engines on full-scale devices of their own (each node is a distinct
    machine) — behind the uniform interface, plus the group handle for
    replication status and failover control. [mode] defaults to
    [Ack_all]; [link_latency_ns] overrides the one-way link latency of
    {!Dstore_platform.Link.default_config}; [apply_depth] overrides
    [Config.repl_apply_depth] (1 is the serial ablation baseline). *)

val sharded :
  ?shards:int -> Platform.t -> scale ->
  Kv_intf.system
(** A {!Dstore_shard.Cluster} of [shards] (default 4) independent DStore
    instances behind the uniform interface. The scale is divided across
    shards (objects, SSD pages — each shard keeps its own channels), and
    every shard's PMEM shares one {!Pmem.Bw} bandwidth domain so
    concurrent checkpoints contend as they would on real DIMMs. Every
    shard checkpoints whenever its own log fills. *)
