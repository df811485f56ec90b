(** Replicated DStore: a primary plus one or more backups behind the
    Table 2 API, with epoch-based failover and laggard catch-up.

    A {e pair} (one backup) is the common deployment; [Group]
    generalizes to N backups with the same protocol. Node 0 starts as
    primary; each backup runs a full engine on its own devices and
    receives the primary's shipped entries — one message per entry,
    sent at commit, and re-executed and acked one at a time by the
    backup (see {!Primary} and {!Backup}) — over simulated {!Link}s.

    Failover: {!promote} seals the current epoch (fencing the old
    primary if it is still alive), drains the survivors' apply queues,
    picks the backup with the highest applied watermark (or the given
    index), replays its log via the {e existing recovery path}
    ([Dstore.recover]), and serves under epoch+1. Survivors exactly
    caught up with the promoted node are re-attached under the new
    epoch; laggards are {e re-synced}: the new primary streams each a
    checkpoint-consistent snapshot and re-attaches it ({!resync}),
    converging to byte identity instead of permanently detaching. A
    fenced old primary rejects post-seal appends with
    {!Primary.Fenced}, and a primary that missed the seal self-fences
    on the first stale-epoch reject from a promoted backup. *)

open Dstore_platform
open Dstore_pmem
open Dstore_ssd
open Dstore_core

type node = Dstore.node = { pm : Pmem.t; ssd : Ssd.t }

type t

type ctx
(** Per-thread context; transparently re-bound to the new primary after
    a promote. *)

val create :
  ?mode:Repl.durability ->
  ?link:Link.config ->
  ?bcfg:Config.t ->
  ?journal:bool ->
  ?obs:Dstore_obs.Obs.t ->
  Platform.t ->
  Config.t ->
  node array ->
  t
(** Format all nodes fresh; node 0 serves. [bcfg] overrides the backup
    engines' config (defaults to the primary's — this is where
    [Skip_replica_ack_fence] and [Skip_resync_journal_replay] go);
    [obs] is handed to the primary store. Defaults: [Ack_all],
    {!Link.default_config}. *)

val ds_init : t -> ctx
val ds_finalize : ctx -> unit

(** {1 Table 2 surface} (raises {!Primary.Fenced} after [kill_primary]
    until the next [promote]) *)

val oput : ctx -> string -> Bytes.t -> unit
val oget : ctx -> string -> Bytes.t option
val oget_into : ctx -> string -> Bytes.t -> int
val odelete : ctx -> string -> bool
val oexists : ctx -> string -> bool
val obatch : ctx -> Dstore.batch_op list -> bool list
val oput_batch : ctx -> (string * Bytes.t) list -> unit
val odelete_batch : ctx -> string list -> bool list
val ocreate : ctx -> string -> unit
val owrite : ctx -> string -> off:int -> Bytes.t -> int
val olock : ctx -> string -> unit
val ounlock : ctx -> string -> unit
val olist : ctx -> prefix:string -> string list

(** {1 Management} *)

val checkpoint_now : t -> unit
val object_count : t -> int
val iter_names : t -> (string -> unit) -> unit

val store : t -> Dstore.t
(** The current primary's store (obs handle, verification seams). *)

val obs : t -> Dstore_obs.Obs.t

val primary : t -> Primary.t
(** The current primary handle — stale after [promote]/[kill_primary];
    a retained old handle raises {!Primary.Fenced}, which is the point. *)

val backups : t -> (int * Backup.t) list
(** (node index, backup) for each attached backup. *)

val detached : t -> int list
(** Nodes that lost their attachment (killed backups, failover
    laggards) and have not been re-synced yet. *)

val epoch : t -> int
val primary_index : t -> int
val primary_alive : t -> bool
val mode : t -> Repl.durability

val kill_primary : ?crash:bool -> t -> unit
(** Failover drill: stop the primary (with [crash], also power-fail its
    PMEM, dropping unflushed lines) and close its links. Ops raise
    {!Primary.Fenced} until {!promote}. *)

val kill_backup : ?crash:bool -> t -> int -> unit
(** Backup-loss drill: stop the node's backup (with [crash], power-fail
    its PMEM), mark its replication slot [Dead] — it stops gating the
    quorum — and move it to {!detached}. Raises [Invalid_argument] if
    the node is not an attached backup. *)

val promote : ?index:int -> t -> unit
(** Seal the epoch and fail over (see module doc). Survivor laggards
    are re-synced from the new primary before [promote] returns. Raises
    [Invalid_argument] with no attached backup, or if [index] names a
    node that is not an attached backup. *)

(** {1 Laggard catch-up} *)

val resync : t -> int -> unit
(** Stream a checkpoint-consistent snapshot to a detached node and
    re-attach it. The cut runs under the primary's write barrier: ops
    drain, the store checkpoints, the image (published PMEM half + data
    device) is captured, and the node's fresh slot attaches [Syncing]
    with the snapshot's rseq watermark — all before the barrier lifts,
    so the shipped suffix the rejoined backup replays is exactly
    [watermark + 1 ..]. Only the cut blocks writers; the transfer
    itself runs with the write path open and blocks {e this caller}
    for the modeled link time. The slot flips [Live] (and starts gating
    durability) once the rejoined backup has acked everything shipped.
    Raises [Invalid_argument] if the node is the primary or already
    attached; {!Primary.Fenced} if the group is dead. *)

val resync_start : t -> int -> unit
(** {!resync} on a spawned fiber — the foreground workload keeps
    running during the transfer (this is how the transfer-window fault
    [Config.Skip_resync_journal_replay] becomes observable). *)

val resync_join : t -> unit
(** Block until every {!resync_start} has completed. *)

val backup_ready : t -> int -> bool
(** The node is attached and its slot is [Live]: promoting it now would
    serve the acked prefix. [false] mid-transfer or mid-install — a
    crash there must fail over to a different node (or wait), which is
    exactly what the pair explorer samples at crash time. *)

val quiesce : t -> unit
(** Block until every attached backup has acked everything shipped
    (no-op under no backups or a dead primary). *)

val stop : t -> unit

type backup_line = {
  node : int;
  state : Primary.slot_state;
  shipped : int;
  acked : int;
  applied : int;
  lag : int;  (** rseq - acked. *)
  link_pending : int;
}

type status = {
  epoch_ : int;
  mode_ : Repl.durability;
  primary_ : int;  (** Node index; -1 if dead. *)
  alive : bool;
  rseq : int;
  lines : backup_line list;
}

val status : t -> status

val journal : t -> Repl.entry list
(** Shipped entries in rseq order (requires [~journal:true] at create;
    survives within one primary incarnation). *)
