(** The DIPPER engine: Decoupled, In-memory, and Parallel PERsistence
    (§3 of the paper).

    DIPPER treats a set of DRAM data structures as a black box (§3.2): the
    host store supplies two hooks — [format_structures] creates the
    structures in a fresh space, [apply] replays one logical operation —
    and the engine provides everything else:

    - the persistent logical log (two {!Oplog}s, swapped by pointer),
    - the frontend critical section and write-write concurrency control
      (in-flight records + commit-flag spinning, §4.4),
    - atomic quiescent-free checkpoints (§3.5): archive the log, clone the
      current shadow space into the other PMEM half, replay committed
      records with a worker pool, persist, publish the root — all while
      the frontend keeps serving,
    - CoW checkpointing (§4.5) as a drop-in alternative for the ablation,
    - idempotent recovery (§3.6) from both failure points: redo an
      interrupted checkpoint from the old shadow copies, rebuild the
      volatile space by bulk copy, replay committed active-log records,
    - physical-logging capture for the Figure 9 naïve baseline.

    Because the same [apply] code runs on the volatile space (recovery) and
    the PMEM shadow space (checkpoints), the engine realizes the paper's
    "same code for both spaces" claim literally. *)

open Dstore_platform
open Dstore_pmem
open Dstore_memory

exception Log_full
(** Raised only under [No_checkpoint] when the log is exhausted. *)

type hooks = {
  format_structures : Space.t -> unit;
      (** Create the store's structures in a freshly formatted space. Must
          be deterministic: it runs identically on the volatile space and
          the PMEM shadow. *)
  prepare : Space.t -> Logrec.op -> unit;
      (** Replay phase 1 — the operation's allocation-pool effects (the
          work the frontend did inside its critical section). Called
          serially in LSN order; must read only the pools and the
          operation's explicit ids, never the key-indexed structures. *)
  apply : Space.t -> Logrec.op -> unit;
      (** Replay phase 2 — the key-indexed structure updates (the work the
          frontend did outside the lock, under observational equivalence).
          Operations on distinct keys may run in parallel. Must charge its
          modeled CPU costs. Neither hook ever sees [Noop]. *)
}

type t

type ticket
(** An in-flight (appended, uncommitted) record. *)

val layout_bytes : Config.t -> int
(** PMEM bytes the engine needs for root + two logs + two spaces. *)

val create :
  ?obs:Dstore_obs.Obs.t -> Platform.t -> Pmem.t -> Config.t -> hooks -> t
(** Format a fresh store on the device (root at offset 0). [obs] supplies
    an existing observability handle (so spans survive engine re-creation
    across crash/recover cycles); by default one is built from the config's
    [obs_enabled] using the platform's virtual clock. *)

val recover :
  ?obs:Dstore_obs.Obs.t -> Platform.t -> Pmem.t -> Config.t -> hooks -> t
(** Open after a shutdown or crash: redoes an interrupted checkpoint if the
    root says one was running, rebuilds the volatile space from the current
    shadow copies, and replays committed log records beyond the applied
    watermark. Records one [Recovery] span whose [S_rec_metadata] and
    [S_rec_replay] segments time the phases. *)

val is_initialized : Pmem.t -> bool

val volatile : t -> Space.t
(** The volatile system space (CoW-barrier-wrapped when configured). *)

val platform : t -> Platform.t

val config : t -> Config.t

(** {1 Verification seam (dstore_check)}

    Read-only access to the persistent pieces a recovered-state checker
    must inspect; no engine state is modified. *)

val log_handles : t -> Oplog.t array
(** Both oplog handles, index 0 and 1 of the layout. *)

val root_snapshot : t -> Root.state
(** The root bank currently selected on the device. *)

val shadow_space : t -> Space.t
(** A fresh handle on the published PMEM shadow space (the checkpoint
    target the root's [current_space] selects). *)

(** {1 The write path (paper Figure 4)}

    One entry point appends, one commits. {!append} runs the pipeline's
    steps 1–5 for a group of records: under the frontend lock, a conflict
    scan over the items' keys (waiting out other writers' in-flight
    records), a log-space check (triggering a checkpoint and waiting for
    space), the optional read-set validation, then each item's builder and
    the staging of every record with an in-flight ticket; the flush runs
    after the lock is released. {!commit} is step 9.

    The durability protocol is not chosen by the caller: it follows from
    the group's shape.
    - {b With a read-set} (an OCC transaction): a [Txn_begin], members,
      [Txn_commit] span. Begin and members are persisted by the coalesced
      batch pass; the commit record alone is persisted by {!commit}, and
      its validity {e is} the transaction's commit point — after a crash,
      recovery surfaces the members iff it persisted (all-or-nothing, see
      [Oplog.resolve_txn_spans]).
    - {b Exactly one record}: the single-record protocol —
      [Oplog.flush_record] to append, [Oplog.persist_slot] to commit.
    - {b More than one record} (group commit): one coalesced flush+fence
      over the staged slot span before the LSN stores and one after
      ([Oplog.flush_batch]), then one [Oplog.persist_span] per log to
      commit, instead of up to 2N + N rounds. No record of the group is
      acknowledged durable until {!commit} returns; after a crash any
      subset may survive, each individually valid-or-absent and
      committed-or-not, so recovery needs no batch awareness.

    So a put, a delete and an [obatch] of one op all take the single-record
    protocol. *)

val wait_readers : t -> Dstore_structs.Readcount.t -> string -> unit
(** Poll the read count to zero (§4.4 read-write conflicts). *)

type appended
(** An appended, uncommitted group of records. *)

val append :
  ?ignore:ticket list ->
  holder:int ->
  ?span:Dstore_obs.Span.t ->
  ?reads:(string * int) list ->
  t ->
  (string * int * (unit -> Logrec.op)) list ->
  (appended, string) result
(** [append t items] appends one record per item [(key, max_slots,
    builder)], keys pairwise distinct, in item order. [max_slots] is the
    caller's estimate of the record's size: the log-space wait runs
    against the items' estimates before any builder, and the records are
    then reserved by their actual size — a record that outgrew its
    estimate waits for room and is built again, so a builder may run more
    than once and each run must replace the previous one's effects. The
    builder runs under the frontend lock after the conflict scan (it finds
    the binding being replaced and builds the final operation); an
    exception from it releases the lock before it propagates.

    [ignore] excludes the caller's own advisory-lock records from the
    conflict scan, and [holder] its own reservations (see {!reserve}; 0
    for a caller that holds none). Another holder's reservation on a key
    is a conflict like an in-flight record: the call waits until it is
    released. A transaction whose caller holds reservations aborts with
    [Error key] instead of waiting where {!holder_must_abort} says so.
    [reads], the read-set as [(key, observed version)]
    pairs (see {!key_version}), makes the group a transaction: it is
    validated under the same lock hold, after the conflict scan, and
    [Error key] reports the first stale read (nothing appended, stats
    count an abort). With [reads] and no items the call only validates
    (a read-only transaction; its {!commit} does nothing).

    Raises {!Log_full} if the group can never fit the log, or under
    [No_checkpoint] when it does not fit now. With a live [span], conflict
    and log-full waits are booked as blame intervals and the lock hold /
    log append as segments. *)

val commit : t -> appended -> unit
(** Step 9, by the group's shape (see above): retire every ticket, bump
    the committed version of every member key, persist, fire the commit
    hook with the member records. On return the group is durable and
    conflict waiters release. *)

val members : appended -> ticket list
(** The member tickets in item order (their operations via {!ticket_op};
    a transaction's framing records are not members). *)

val ticket_op : ticket -> Logrec.op
(** The operation the ticket logged — the builder may build it from
    under-lock state the caller wants back. *)

val with_frontend_lock : t -> (unit -> 'a) -> 'a
(** Run [f] under the frontend lock without logging: the store's
    allocation claims and commit-time releases, which replay orders by
    the log. *)

val key_version : t -> string -> int
(** The key's committed-version counter (bumped at every commit on the
    key). Observe it {e before} reading the value: validation then aborts
    any transaction whose read raced a commit. *)

val set_commit_hook : t -> ((int * Logrec.op) list -> unit) option -> unit
(** Oplog span export seam (dstore_repl). The hook fires after a commit's
    closing persist with the (lsn, op) pairs of the group's members,
    mirroring the persist that made them durable. It runs on the
    committing thread, outside the frontend lock, so it may take locks of
    its own but must not call back into the engine. *)

type conflict =
  | Clear
  | Ticket of ticket  (** An in-flight record on the key. *)
  | Reserved  (** Another holder's reservation on the key. *)

val conflicting_ticket : ?ignore:ticket list -> holder:int -> t -> string -> conflict
(** What a reader of this name must wait out, if anything (takes and
    releases the frontend lock). [ignore] excludes specific records — the
    caller's own advisory-lock NOOP, so a lock holder can operate on the
    object it locked — and [holder] the caller's own reservations (0: it
    holds none). The same scans back {!append}'s conflict check. Allocates
    nothing when the name is clear. *)

val conflicting_ticket_versioned :
  ?ignore:ticket list -> holder:int -> t -> string -> conflict * int
(** {!conflicting_ticket} and {!key_version} in a single frontend-lock
    round: the conflict scan plus the key's committed version, observed
    atomically. Backs the hoisted single-lookup [Dstore.oget_versioned]
    (version strictly before value, no second lock acquisition). *)

val wait_conflict : t -> holder:int -> string -> conflict -> unit
(** Wait out a conflict on the key, holding nothing: spin (with backoff)
    until an in-flight record commits, or sleep on the reservation cond
    until no holder other than [holder] reserves the key. A reader first
    leaves the read count. *)

val holder_must_abort : conflict -> bool
(** Whether a reservation holder must abort rather than wait: on another
    holder's reservation, and on a NOOP record, which may be an advisory
    lock held indefinitely. A holder thus waits only on commit tickets,
    whose owners never wait on reservations: no hold-and-wait. *)

(** {1 Reservations}

    A volatile, all-or-nothing claim on a set of keys, taken by a
    transaction retrying after repeat aborts ([Dstore_txn.txn]). While a
    key is reserved, every other client's conflict scan treats it like an
    in-flight record, so the holder's reads stay valid and its commit
    cannot fail validation. Reservations are never logged: log swaps do
    not re-home them, and checkpoints and recovery never see them.
    Holders are identified by a nonzero int (a store context's id). *)

val reserve :
  ?ignore:ticket list -> ?span:Dstore_obs.Span.t -> t -> holder:int -> string list -> unit
(** Reserve every key for [holder] in one frontend-lock hold. While any
    key has an in-flight record (outside [ignore]) or another holder's
    reservation, wait holding nothing, then scan again. With a live
    [span], the waits are booked as [Txn_retry] blame. *)

val release : t -> holder:int -> string list -> unit
(** Drop [holder]'s reservations on these keys and wake every client
    waiting on a reservation. *)

(** {1 Physical logging (ablation)} *)

val capture_writes : t -> (unit -> unit) -> (int * string) list
(** Run [f] with volatile-space write capture enabled and return the redo
    images. Caller must hold the frontend lock (physical logging runs with
    [oe = false]). *)

(** {1 Checkpoints} *)

val checkpoint_now : t -> unit
(** Trigger a checkpoint and block until it completes. *)

val checkpoints_quiesced : t -> bool

val is_checkpoint_running : t -> bool
(** Lock-free snapshot (racy by design) — lets crash harnesses detect the
    paper's worst failure point from outside process context. *)

val set_ckpt_gate : t -> ((unit -> unit) -> unit) -> unit
(** Install a wrapper around checkpoint execution. The manager thread
    calls [gate run] instead of running the checkpoint directly; the gate
    must call [run] exactly once. The shard layer uses this to cap how
    many engines checkpoint concurrently (staggered scheduling) and to
    count concurrent checkpoints. Default: [fun run -> run ()]. *)

val log_fill : t -> float
(** Fraction of the active log's slots currently occupied, in [0, 1] —
    the quantity the checkpoint trigger thresholds on ([Config.t]'s
    [checkpoint_threshold]); surfaced for status displays. *)

(** {1 Snapshot image transfer (replica catch-up)} *)

val capture_image : t -> Bytes.t
(** Copy the published space half's used prefix to DRAM (bulk read cost
    charged). Meaningful only while the engine is write-quiesced right
    after a {!checkpoint_now} — the image is then checkpoint-consistent
    and holds the entire committed history. The replication layer streams
    it to a re-syncing laggard. *)

val install_image : Pmem.t -> Config.t -> image:Bytes.t -> unit
(** Overwrite [pm] with a captured image, leaving the device exactly as a
    freshly-recovered store: image in space half 0, both logs empty, root
    pointing at them ([last_applied_lsn = 0]). Crash-safe by ordering:
    the root magic is zeroed {e first} and re-created {e last}, so a
    crash mid-install leaves a visibly uninitialized device rather than a
    half-old, half-new one. Follow with {!recover}. *)

(** {1 Lifecycle} *)

val stop : t -> unit
(** Stop the background checkpoint manager (no final checkpoint — matching
    the paper's shutdown, which recovers by replaying the active log). *)

type stats = {
  mutable checkpoints : int;
  mutable ckpt_total_ns : int;  (** Wall (virtual) time inside checkpoints. *)
  mutable ckpt_archive_ns : int;  (** Log reset + swap + root publish. *)
  mutable ckpt_clone_ns : int;  (** Shadow clone (full or delta). *)
  mutable ckpt_replay_ns : int;  (** Archived-log replay onto the shadow. *)
  mutable ckpt_persist_ns : int;  (** End-of-checkpoint durability pass. *)
  mutable ckpt_publish_ns : int;  (** Root flip making the shadow current. *)
  mutable ckpt_bytes_cloned : int;  (** Bytes actually copied into targets. *)
  mutable ckpt_bytes_skipped : int;
      (** Bytes of the used prefix a delta clone did {e not} copy — the
          incremental win over a full clone. *)
  mutable ckpt_full_clones : int;
      (** Wholesale clones: every clone under [Config.Full], plus delta
          fallbacks (first checkpoint, post-recovery, unformatted target). *)
  mutable ckpt_delta_clones : int;  (** Dirty-page incremental clones. *)
  mutable log_full_stalls : int;  (** Writers that waited for log space. *)
  mutable conflict_waits : int;
  mutable records_appended : int;
  mutable batches_committed : int;
      (** Group commits completed ({!commit} of more than one record,
          outside transactions). *)
  mutable batch_records : int;
      (** Records committed through group commits — [batch_records /
          batches_committed] is the mean batch fill (full distribution in
          the [dipper.batch_fill] histogram). *)
  mutable txns_committed : int;
      (** OCC transactions committed (including read-only validations). *)
  mutable txns_aborted : int;
      (** OCC validation failures — each retry attempt counts once. *)
  mutable txn_member_records : int;
      (** Write-set records committed through transaction spans. *)
  mutable records_replayed : int;
  mutable records_moved : int;  (** Uncommitted records re-homed at swaps. *)
  mutable cow_faults : int;  (** Client-absorbed CoW page copies. *)
  mutable recovery_metadata_ns : int;
  mutable recovery_replay_ns : int;
  mutable recovery_replayed_records : int;
}

val stats : t -> stats

val obs : t -> Dstore_obs.Obs.t
(** The engine's observability handle: metrics registry (device counters,
    [dipper.*] views of {!stats}) and the span recorder. *)

val pmem_footprint : t -> int
(** Bytes of PMEM in active use: root, both logs, used prefixes of both
    space halves. *)

val dram_footprint : t -> int
(** Used bytes of the volatile space. *)
