(** Backup engine: a full [Dstore.t] on its own devices that receives
    shipped spans, re-executes them through the Table 2 API (durable on
    return: append-and-persist), and acks what it has applied.

    {b Pipelined apply} (PR: pipelined replication): receive and apply
    are decoupled. The receive loop drains the data link into a bounded
    queue ([Config.repl_apply_depth] entries; when full it stops
    receiving, backpressuring into the link), and a separate apply loop
    pops one entry at a time, re-executes it and acks it. A put, delete
    or shipped group commit runs as one group commit on its pre-staged
    claims (or claims and writes its payloads at apply); creates and
    ranged writes replay through {!Repl.apply_entry}. The ack carries the
    entry's rseq, so a client's durability wait ends as soon as its own
    entry is applied, not when a later one is.

    {b Pre-staging}: a {!Repl.Stage} claims ids when it arrives — only
    once everything received before it has applied, so claims and
    commit-time frees happen in link order, as a one-by-one replay of
    the stream would make them — and queues the payload write for a
    fixed pool of writer fibers, one per SSD channel. Its entry then
    waits for that write and appends and commits with no device time.
    At most [repl_apply_depth - 1] stages wait unapplied (a ring indexed
    by tag); beyond that, and for an entry whose stage never arrived,
    the entry stages at apply. Claims no entry will use go back on a
    {!Repl.Drop}, an epoch change, {!reattach} and {!stop}.

    Time an entry spends queued between receipt and re-execution, and
    its wait for an unfinished payload write, are booked as
    [Span.Repl_apply] blame on this store's recorder, and the pipeline
    exports [repl.apply_queue] / [repl.apply_depth] /
    [repl.apply_entries] / [repl.apply_drain_ns] / [repl.prestaged] on
    its registry ([repl.apply_batches], one per entry, equals
    [repl.apply_entries]).

    Epoch fence: a ship whose epoch is older than the backup's is
    rejected with a negative ack carrying the backup's epoch — this is
    what actually stops a sealed old primary from making progress after
    failover. A ship with a {e newer} epoch is adopted (the backup
    learns of its new primary from the stream itself).

    [Config.Skip_replica_ack_fence] on the backup's config moves the
    ack to {e enqueue} time — it leaves before the entry is applied and
    persisted — which is exactly the protocol bug the pair explorer's
    selftest must catch. *)

open Dstore_platform
open Dstore_core

type t

val create :
  Platform.t ->
  ?applied0:int ->
  data:Repl.msg Link.t ->
  ack:Repl.ack_msg Link.t ->
  epoch:int ->
  Dstore.t ->
  t
(** Wrap a (fresh or recovered) store as a backup. [applied0] (default
    0) seeds the applied-rseq watermark — a re-synced laggard passes
    the snapshot's watermark so the shipped suffix starts exactly after
    it. Call {!start} to spawn the loops. *)

val reattach :
  t -> data:Repl.msg Link.t -> ack:Repl.ack_msg Link.t -> epoch:int -> t
(** After failover: rebind a surviving backup to a new primary's links
    under the new epoch, keeping its store and applied watermark (the
    apply queue starts empty — the new primary reships everything above
    the watermark — and the old incarnation's claims go back). Call
    {!start} on the result. *)

val start : t -> unit
(** Spawn the receive and apply loops and the payload writers (all exit
    when the data link closes and the queue drains, or on {!stop}). *)

val drain : t -> unit
(** Block until everything already received has been applied (queue
    empty, no entry mid-execution). Failover uses this to stabilize the
    applied watermark before comparing survivors. *)

val stop : t -> unit
(** Close both links, wake and retire the loops, give back pre-staged
    claims once their writes finish, stop the store. Entries still
    queued are dropped — they were never acked. *)

val store : t -> Dstore.t

val applied_rseq : t -> int
(** Highest applied-and-persisted replication sequence number. *)

val rejects : t -> int
(** Stale-epoch ships rejected. *)
