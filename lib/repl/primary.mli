(** Primary: wraps one [Dstore.t] with span shipping and durability
    waits.

    Every mutating Table 2 call runs locally first (local commit
    persists as usual), then ships as one replication entry — a whole
    group commit ships as one [R_batch] entry, mirroring the local
    group commit's persist — to every attached backup, in rseq order. A put or group commit first sends its
    payloads as a {!Repl.Stage}, before the local op, so each backup
    writes them to its SSD while this node does; its entry is then a
    header naming the stage's tag, and a local op that raises sends a
    {!Repl.Drop} for it. Under [Ack_one]/[Ack_all] the call then
    blocks until the quorum acks the entry; that wait is charged to the
    op's causal span as [Span.Repl_wait] blame, so tail attribution
    explains replication stalls by name.

    {b Shipping at commit}: each entry goes out as a message of its own
    under the lock hold that assigns its rseq, so stream order always
    equals commit order. The backup batches on its side (see
    {!Backup}) and acks the highest rseq it has applied; the monotone
    per-slot watermark releases every durability wait at or below it.

    {b Durability waits} park one per entry, keyed by rseq. An ack
    computes the quorum mark once — the minimum [acked] over live slots
    under [Ack_all], the maximum under [Ack_one] — and wakes exactly the
    waiters at or below it, lowest rseq first. A fence, a dead or
    detached slot, an attach and a reject wake every waiter to re-check.

    {b Quorum} ranges over {e live} slots only. A slot is [Live]
    (ordinary backup), [Syncing] (mid catch-up: receives the stream,
    does not gate durability until it has acked everything shipped), or
    [Dead] (link closed or explicitly detached; never counted again).
    With zero live slots the quorum is vacuously reached — visible as
    [repl.live_backups] = 0.

    Epoch fencing: {!fence} seals the primary — every subsequent call
    (and every in-progress durability wait) raises {!Fenced}. A primary
    that misses the seal fences itself on the first stale-epoch reject
    ack it receives from a promoted backup.

    Metrics ([repl.*]) register on the store's registry: epoch, rseq,
    ship / message / byte / ack / reject / wait counters ([repl.ship_msgs] and
    [repl.ship_bytes] count ordering entries, [repl.stage_msgs] the
    stages), live-backup count, and the current
    replication lag over live slots. *)

open Dstore_platform
open Dstore_core
module Span = Dstore_obs.Span

exception Fenced
(** The op ran on a sealed (or dead) primary and was not made durable
    under the configured quorum. *)

type t

(** Replication slot lifecycle (see the overview above). *)
type slot_state = Live | Syncing | Dead

val slot_state_name : slot_state -> string
(** ["live"] / ["syncing"] / ["dead"]. *)

val create :
  Platform.t ->
  mode:Repl.durability ->
  epoch:int ->
  ?rseq_base:int ->
  ?journal:bool ->
  Dstore.t ->
  (int * Repl.msg Link.t * Repl.ack_msg Link.t * int) array ->
  t
(** [create p ~mode ~epoch store slots] with one
    [(node_id, data, ack, acked0)] slot per backup; [acked0] is the
    backup's already-applied rseq (0 for a fresh pair, the applied
    watermark when re-attaching after failover). [rseq_base] continues
    an existing sequence. Spawns one ack-receiver process per slot. [journal] retains every shipped entry in DRAM
    (test seam — see {!journal}). *)

val store : t -> Dstore.t
val fenced : t -> bool
val rseq : t -> int

val fence : t -> unit
(** Seal: reject every later append and wake blocked durability waits. *)

val close_links : t -> unit
(** Close both links of every slot (backup receive loops exit). *)

(** {1 Replicated Table 2 surface}

    Mutators ship; reads are served locally but still refuse a fenced
    primary (a sealed node must not serve possibly-stale state). *)

val oput : t -> Dstore.ctx -> string -> Bytes.t -> unit
val odelete : t -> Dstore.ctx -> string -> bool
val obatch : t -> Dstore.ctx -> Dstore.batch_op list -> bool list
val ocreate : t -> Dstore.ctx -> string -> unit
(** [oopen ~create:true] + [oclose], shipped as [R_create]. *)

val owrite : t -> Dstore.ctx -> string -> off:int -> Bytes.t -> int
(** Ranged write on an existing object, shipped as [R_write]. *)

val oget : t -> Dstore.ctx -> string -> Bytes.t option
val oget_into : t -> Dstore.ctx -> string -> Bytes.t -> int
val oexists : t -> Dstore.ctx -> string -> bool
val olock : t -> Dstore.ctx -> string -> unit
val ounlock : t -> Dstore.ctx -> string -> unit

(** {1 Snapshot barrier & slot management (replica catch-up)}

    The re-sync protocol ([Group.resync]) cuts a checkpoint-consistent
    snapshot under a write barrier: {!begin_snapshot} blocks new
    mutators and drains in-flight ops;
    the caller then checkpoints, captures the transfer image, and
    attaches the laggard's fresh slot — all before {!end_snapshot}
    reopens the write path. Attaching {e under} the barrier is what
    makes the journal suffix exact: everything shipped after the
    barrier lifts has rseq > the snapshot's watermark and flows down
    the new slot's FIFO link, so the laggard replays exactly
    [snapshot_rseq + 1 ..] — nothing doubled, nothing dropped. *)

val begin_snapshot : t -> unit
(** Close the write barrier: wait until no mutator is in flight. Raises {!Fenced} on a sealed primary. Only
    one snapshot may be open at a time (concurrent callers queue). *)

val end_snapshot : t -> unit
(** Reopen the write path. *)

val attach_slot :
  t ->
  node:int ->
  data:Repl.msg Link.t ->
  ack:Repl.ack_msg Link.t ->
  acked0:int ->
  syncing:bool ->
  unit
(** Add a replication slot and spawn its ack receiver. With
    [syncing:true] the slot starts [Syncing] and flips [Live] on the
    first ack that covers everything shipped. *)

val detach_slot : t -> int -> unit
(** Mark the node's slot [Dead] (idempotent): it stops gating quorums
    and receives no further ships. *)

val slot_state : t -> int -> slot_state option
(** Current state of the node's slot; [None] if never attached. *)

(** {1 Status} *)

type backup_status = {
  b_node : int;
  b_state : slot_state;
  b_shipped : int;
  b_acked : int;
  b_link_pending : int;  (** Messages in flight + queued on the data link. *)
}

type status = {
  s_epoch : int;
  s_mode : Repl.durability;
  s_fenced : bool;
  s_rseq : int;
  s_backups : backup_status list;
}

val status : t -> status

val quiesce : t -> unit
(** Block until no op is in flight and every non-dead slot has acked
    everything shipped so far (or the primary is fenced). *)

val journal : t -> Repl.entry list
(** Shipped entries in rseq order; empty unless created with
    [~journal:true]. *)
