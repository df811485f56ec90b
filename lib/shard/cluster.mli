(** A hash-partitioned cluster of independent DStore engines.

    The paper's DIPPER engine (§4) is deliberately single-instance; the
    cluster layer scales it out the way partitioned-PM designs (DINOMO,
    disaggregated-PM stores) do: N fully independent {!Dstore.t} instances
    — each with its own Pmem/Ssd devices, oplog pair, shadow spaces, and
    checkpoint manager thread — behind one handle exposing the same
    Table 2 API. {!Shard_map} routes each object name to its owning shard;
    no operation ever spans two shards, so every shard keeps exactly the
    single-store crash-consistency story the checker verifies.

    Each shard triggers its own checkpoint when its log fills, exactly
    as a single store does (§3.5); the cluster adds no checkpoint
    scheduling. The shards' PMEM devices share one bandwidth domain
    ({!Dstore_pmem.Pmem.Bw}), so checkpoints that overlap split DIMM
    bandwidth between them.

    {!crash} applies a per-shard crash mode to every PMEM device;
    {!recover} re-opens every shard (interrupted checkpoints redo first,
    then log replay, per §3.6) and verifies every shard's root.

    Observability: the cluster owns an {!Dstore_obs.Obs.t} whose registry
    carries cluster gauges ([cluster.*], [shard<i>.log_fill_pct], …).
    {!stop} folds every shard's registry in under a [shard<i>.] prefix,
    so exported metrics keep per-shard series without clobbering. *)

open Dstore_platform
open Dstore_pmem
open Dstore_ssd
open Dstore_core

(** One shard's device pair (see {!Dstore_core.Dstore.node}). *)
type node = Dstore.node = { pm : Pmem.t; ssd : Ssd.t }

type t

type ctx
(** Per-thread request context: one {!Dstore.ctx} per shard. *)

val create :
  ?obs:Dstore_obs.Obs.t ->
  ?shard_obs:(int -> Dstore_obs.Obs.t option) ->
  Platform.t ->
  Config.t ->
  node array ->
  t
(** Format a fresh store on every node. [Config.t] is the per-shard
    configuration (sizes are per shard, not per cluster).
    [obs] supplies a cluster observability handle that survives
    crash/recover cycles. [shard_obs i] optionally supplies shard [i]'s
    store-level handle the same way (e.g. a single-shard shell sharing
    one span recorder with the cluster — a shard handed the cluster handle
    itself is excluded from the [shard<i>.] metric fold to avoid
    self-duplication). Raises on an empty node array. *)

val recover :
  ?obs:Dstore_obs.Obs.t ->
  ?shard_obs:(int -> Dstore_obs.Obs.t option) ->
  Platform.t ->
  Config.t ->
  node array ->
  t
(** Re-open every shard after shutdown or crash, in shard order. Raises
    [Failure] if any node holds no initialized store or any recovered
    root fails verification ({!verify_roots}). *)

val stop : t -> unit
(** Stop every shard's background machinery, then fold each shard's
    metrics registry into the cluster registry under [shard<i>.]
    (callback gauges materialize as plain gauges). Idempotent. *)

val crash : t -> (int -> Pmem.crash_mode) -> unit
(** Apply a crash mode to every shard's PMEM device ([mode_of i] picks
    the mode for shard [i]). The caller then abandons every volatile
    handle and calls {!recover} on the same nodes. *)

(** {1 Table 2 API} *)

val ds_init : t -> ctx

val ds_finalize : ctx -> unit

val oput : ctx -> string -> Bytes.t -> unit

val oget : ctx -> string -> Bytes.t option

val oget_into : ctx -> string -> Bytes.t -> int

val oget_view : ctx -> string -> Bytes.t -> (Bytes.t * int) option
(** Zero-copy borrow from the owning shard's DRAM cache — see
    {!Dstore.oget_view}. The borrowed view is invalidated by {e any}
    store mutation on the owning shard — including fills and
    write-throughs by concurrent clients — not just the caller's own
    next operation; consume it before yielding. *)

val odelete : ctx -> string -> bool

val oexists : ctx -> string -> bool

val obatch : ctx -> Dstore.batch_op list -> bool list
(** Group commit across shards: the batch is partitioned by routing hash
    (each shard's sub-order preserved), one {!Dstore.obatch} runs per
    shard, and the per-op results come back in input order. Durable on
    return — each shard's sub-batch carries the engine's group-commit
    contract, so after a crash any subset of the whole batch may
    survive. *)

val oput_batch : ctx -> (string * Bytes.t) list -> unit
(** {!obatch} over puts only. *)

val odelete_batch : ctx -> string list -> bool list
(** {!obatch} over deletes only; per-key existence results. *)

val oopen : ctx -> string -> ?create:bool -> Dstore.open_mode -> Dstore.obj
(** Open on the owning shard; the returned handle is shard-local, so
    {!oread}/{!owrite}/{!oclose}/{!osize} are the single-store calls. *)

val oread : Dstore.obj -> Bytes.t -> size:int -> off:int -> int

val owrite : Dstore.obj -> Bytes.t -> size:int -> off:int -> int

val oclose : Dstore.obj -> unit

val osize : Dstore.obj -> int

val olock : ctx -> string -> unit

val ounlock : ctx -> string -> unit

val txn :
  ?retries:int ->
  ctx ->
  keys:string list ->
  (Dstore_txn.t -> 'a) ->
  ('a, Dstore_txn.abort_reason) result
(** Single-shard transaction fast path: [keys] declares the footprint;
    the txn is routed by the first key and runs wholly on that shard
    (one log span, one OCC validation — see {!Dstore_txn.txn}). If any
    key routes to a different shard the call returns
    [Error (Cross_shard key)] without running [fn]: DStore has no
    distributed commit, and spanning shards would silently break the
    all-or-nothing crash contract. An empty footprint routes to shard
    0 (read-only or single-shard-by-construction uses). Retries follow
    {!Dstore_txn.txn}'s bounded policy on the owning shard. *)

val olist : ctx -> prefix:string -> string list
(** Union of every shard's listing, re-sorted lexicographically. *)

(** {1 Cluster introspection} *)

val shard_count : t -> int

val shard_of : t -> string -> int

val shard_store : t -> int -> Dstore.t
(** The underlying store of shard [i] (checker/status access). *)

val object_count : t -> int

val iter_names : t -> (string -> unit) -> unit
(** Global lexicographic order (merged across shards). *)

val footprint : t -> Dstore.footprint
(** Field-wise sum over shards. *)

val checkpoint_now : t -> unit
(** Checkpoint every shard, in shard order. *)

val cache_stats : t -> Dstore_cache.Cache.stats option
(** Field-wise sum of every shard's DRAM-cache counters; [None] when no
    shard has a cache. Per-shard series stay visible as
    [shard<i>.cache.*] gauges in {!aggregate_metrics}/{!stop}. *)

val cache_clear : t -> unit
(** Drop every shard's cached objects (volatile state only). *)

val log_fill : t -> int -> float
(** Active-log fill fraction of shard [i]. *)

val is_checkpoint_running : t -> int -> bool

val verify_roots : t -> string list
(** Per-shard root sanity: space/log selectors in domain, no checkpoint
    still marked in progress, non-negative applied watermark. Empty list
    = all good. Run by {!recover}; exposed for checkers. *)

val obs : t -> Dstore_obs.Obs.t
(** The cluster handle: [cluster.*] and [shard<i>.*] gauges in the registry, plus (after {!stop}) every
    shard's metrics under [shard<i>.]. *)

val aggregate_metrics : t -> Dstore_obs.Metrics.t
(** Live snapshot: a fresh registry holding the cluster registry plus
    every shard's registry merged under [shard<i>.] (callback gauges
    materialized). Safe to call while running. *)

val tail_recorder : t -> Dstore_obs.Span.recorder
(** Live snapshot of the cluster's spans: a fresh recorder holding
    the cluster handle's spans plus every distinct shard recorder's,
    merged (rings interleaved by finish time, histograms, blame totals
    and time series summed). Source recorders are not mutated; safe to
    call while running. *)
