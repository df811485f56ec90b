(** Store configuration: the design axes of the paper's evaluation plus
    capacity and cost-model knobs.

    The three ablation axes of Figure 9 are here: [logging]
    (physical → logical), [checkpoint] (CoW → DIPPER), and [oe]
    (observational-equivalence concurrency on/off). The defaults are the
    full DStore design. *)

type checkpoint_mode =
  | Dipper  (** Quiescent-free decoupled checkpoint (§3.5) — the paper. *)
  | Cow
      (** Copy-on-write page checkpoints as in NOVA/Pronto (§4.5): mark the
          volatile space read-only and copy pages on first touch. *)
  | No_checkpoint
      (** Never checkpoint; the log must be provisioned to outlast the run
          (the "checkpoints disabled" configuration of Figure 1). *)

type logging_mode =
  | Logical  (** Compact operation logging (§3.4). *)
  | Physical
      (** ARIES-style physical redo images, as used by DudeTM/NV-HTM —
          the Figure 9 naïve baseline. *)

(** How a DIPPER checkpoint materializes the target PMEM half before
    replaying the archived log onto it. Only meaningful under [Dipper]
    checkpoints. *)
type clone_mode =
  | Full  (** Wholesale copy of the source's used prefix — O(store size). *)
  | Delta
      (** Incremental: copy only the 4 KB pages the previous checkpoint's
          replay dirtied in the source half, plus the grown part of the
          used prefix. The dirty sets are volatile, so the first checkpoint
          of a process (fresh or recovered) falls back to a full copy. *)

(** Modeled CPU costs, charged via [Platform.consume] at protocol level
    (device costs are charged by the devices themselves). Calibrated from
    the paper's Table 3; DStore and the baselines share one [costs]. *)
type costs = {
  btree_ns : int;  (** One index update (Table 3: ~300 ns). *)
  meta_ns : int;  (** Allocate blocks + write metadata entry (~292 ns). *)
  lookup_ns : int;  (** Index + metadata read on the read path. *)
  log_cpu_ns : int;  (** CPU part of building a log record. *)
  cow_fault_ns : int;
      (** Write-protection fault service: trap + mprotect bookkeeping +
          TLB shootdown across the socket — the per-page cost clients
          absorb under CoW checkpoints (§4.5). *)
}

let costs =
  {
    btree_ns = 300;
    meta_ns = 292;
    lookup_ns = 250;
    log_cpu_ns = 60;
    cow_fault_ns = 8_000;
  }

(** Deliberate crash-consistency protocol mutations (§3.4 ordering rules),
    used by [dstore_check] to prove the checker catches real bugs. The
    production configuration is always [No_fault]. *)
type fault =
  | No_fault
  | Skip_commit_persist
      (** Set the commit word but never flush it: an acknowledged op's
          commit can be lost on power failure. *)
  | Skip_payload_flush
      (** Persist only a multi-slot record's LSN line, not its payload
          continuation lines: breaks the reverse-order flush rule, so a
          committed record can be torn. *)
  | Skip_dirty_track
      (** Disable replay dirty-page tracking under [Delta] clones: the next
          incremental clone copies only the grown prefix and misses the
          previous replay's structure updates, so a stale half is fed back
          into the pipeline — published state goes wrong, and the delta
          persist pass misses the replay's cache lines. *)
  | Skip_batch_commit_fence
      (** Set every commit word of a group commit but skip the batch's
          single commit persist pass (the coalesced flush + fence over the
          slot span): a batch acknowledged to all its callers can lose any
          or all of its commit words on power failure. *)
  | Skip_replica_ack_fence
      (** Replication-protocol mutation (honored by [Dstore_repl.Backup],
          not the engine): the backup acks a shipped span {e before}
          applying and persisting it, so an op acked durable under
          [Ack_one]/[Ack_all] can vanish when the pair crashes and the
          backup is promoted. *)
  | Skip_txn_commit_record
      (** Store a transaction's commit-record LSN word but never flush it:
          the commit point of the whole span is left in the cache, so an
          acknowledged multi-key transaction can evaporate wholesale on
          power failure — the torn-transaction bug the transactional
          oracle must catch. *)
  | Stale_cache_read
      (** DRAM object-cache coherence mutation (honored by the read
          cache glue in [Dstore], not the persistence protocol): serve
          reads from the cache but skip the write-pipeline
          invalidation/write-through, so a read after a committed
          overwrite or delete can return the {e old} bytes — the
          stale-read bug the live-read coherence check must catch.
          Volatile only: crash recovery is unaffected by construction. *)
  | Skip_resync_journal_replay
      (** Replica catch-up mutation (honored by [Dstore_repl.Group], not
          the engine): a re-syncing laggard installs the streamed
          checkpoint snapshot but {e drops the journal suffix} — the
          entries shipped between the snapshot cut and the moment its
          slot re-attached are marked applied without being executed.
          Ops acknowledged during the transfer window silently vanish
          from the rejoined backup, so promoting it later serves a state
          that is not the acked prefix — the divergence the pair sweep's
          byte-identity oracle must catch. *)

type t = {
  checkpoint : checkpoint_mode;
  ckpt_clone : clone_mode;
      (** Shadow-clone strategy for [Dipper] checkpoints; [Full] is the
          ablation baseline. *)
  logging : logging_mode;
  oe : bool;
      (** Observational equivalence: when false, index/metadata updates run
          inside the pool critical section (fully serialized order). *)
  log_slots : int;  (** 64 B slots per log (two logs are allocated). *)
  checkpoint_threshold : float;
      (** Trigger a checkpoint when active-log fill reaches this fraction. *)
  checkpoint_workers : int;  (** Backend replay thread-pool size. *)
  space_bytes : int;  (** Bytes per space (volatile + two PMEM shadows). *)
  meta_entries : int;  (** Metadata-zone capacity (max live objects). *)
  ssd_blocks : int;  (** Block-pool capacity; block = one SSD page. *)
  cache_bytes : int;
      (** DRAM object-cache byte budget; 0 disables the cache. Strictly
          volatile (never persisted, cold after recovery) and only
          engaged under [Logical] logging, where the write pipeline's
          reader fencing makes invalidation race-free. *)
  repl_apply_depth : int;
      (** Backup apply-queue bound, in entries: the receive loop drains
          the data link into a queue of at most this depth (then
          backpressures into the link), decoupling receive from apply so
          the backup re-executes and acks one entry while later messages
          are still in flight, and pre-stages up to [depth - 1] payloads
          ahead of their entries. 1 = the serial ablation baseline. *)
  obs_enabled : bool;
      (** Observability opt-out: when false the store's metrics registry
          and span recorder are created disabled (recording is a dead
          branch), so span-derived figures such as Table 3 read zero.
          Engine {!Dipper.stats} are unaffected — they are not optional
          instrumentation. *)
  fault : fault;
      (** Injected protocol bug for checker validation; [No_fault] in any
          real configuration. *)
}

let default =
  {
    checkpoint = Dipper;
    ckpt_clone = Delta;
    logging = Logical;
    oe = true;
    log_slots = 8192;
    checkpoint_threshold = 0.5;
    checkpoint_workers = 4;
    space_bytes = 32 * 1024 * 1024;
    meta_entries = 16384;
    ssd_blocks = 60 * 1024;
    cache_bytes = 0;
    repl_apply_depth = 256;
    obs_enabled = true;
    fault = No_fault;
  }

let pp_mode fmt t =
  Format.fprintf fmt "%s+%s%s%s"
    (match t.logging with Logical -> "logical" | Physical -> "physical")
    (match t.checkpoint with
    | Dipper -> "dipper"
    | Cow -> "cow"
    | No_checkpoint -> "nockpt")
    (match (t.checkpoint, t.ckpt_clone) with
    | Dipper, Full -> "+fullclone"
    | _ -> "")
    (if t.oe then "+oe" else "")
