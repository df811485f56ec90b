(** A DIPPER operation log: a PMEM region of 64-byte slots with the
    reverse-order-flush append protocol of §3.4.

    Two of these exist per store (active + archived, swapped by pointer at
    checkpoint time). LSNs are derived from slot positions — a record
    starting at slot [k] of a log whose epoch base is [b] has LSN [b + k] —
    which is what lets recovery validate records positionally and skip torn
    multi-slot records (DESIGN.md deviation 1).

    Appending is split to keep the paper's lock-hold time (<300 ns):
    {!reserve} + {!write_record} run inside the pool critical section and
    only store bytes; {!flush_record} runs outside it and performs the
    actual persistence protocol — payload lines first, then the LSN word is
    written and its line flushed {e last}, so a crash can never leave a
    valid-looking record with unpersisted payload. A record found by
    {!scan} is therefore valid only if its LSN satisfies the slot equation
    {e and} its CRC-32C (over LSN, header and payload) matches; the commit
    word sits outside the CRC and is persisted separately by
    {!commit_record} once the operation's data is durable. *)

open Dstore_pmem

type t

val region_bytes : slots:int -> int
(** Device bytes needed for a log of [slots] slots (includes one header
    slot). *)

val attach :
  ?obs:Dstore_obs.Obs.t ->
  ?fault:Config.fault ->
  Pmem.t ->
  off:int ->
  slots:int ->
  t
(** Open a log region without modifying it (recovery path). With [obs],
    appends, commits, resets and scans count on the handle's registry
    ([oplog.records_written], [oplog.records_committed], [oplog.resets],
    [oplog.scans]); both logs of an engine share the series. [fault]
    (default [No_fault]) injects a deliberate protocol bug for checker
    validation — see {!Config.fault}. *)

val reset : t -> lsn_base:int -> unit
(** Zero every slot, set the epoch base, persist. Bulk cost is charged to
    the caller — DIPPER resets the standby log {e before} the swap, outside
    the critical section. *)

val capacity : t -> int

val lsn_base : t -> int

val tail : t -> int
(** Next free slot (volatile; reconstructed by {!recover_tail}). *)

val free_slots : t -> int

val reserve : t -> int -> int
(** [reserve t n] claims [n] contiguous slots and returns the first, or
    -1 if the log is full. The record there has LSN
    [lsn_base t + slot]. Caller must hold the frontend lock. *)

val write_record : t -> slot:int -> lsn:int -> Logrec.op -> unit
(** Store the record bytes (header with commit = 0 + payload). The image
    is assembled in a staging buffer the log keeps, so an append
    allocates nothing once the buffer covers the longest record. No
    persistence; call under the frontend lock. *)

val flush_record : t -> slot:int -> lsn:int -> Logrec.op -> unit
(** The §3.4 protocol: flush continuation lines, then write the LSN and
    flush its line last. On return the record is durable and valid (but
    uncommitted). Call outside the lock. *)

val flush_batch : t -> (int * int * Logrec.op) list -> unit
(** Group-commit append persistence: [(slot, lsn, op)] triples previously
    staged with {!write_record}. One coalesced flush + fence over the whole
    staged slot span, then every LSN word is stored, then a second flush +
    fence over the span — two persistence rounds for the entire batch
    instead of one or two per record. Each record keeps the reverse-order
    invariant (payload durable strictly before its LSN line), so after a
    crash any subset of the batch may survive, each member individually
    valid-or-absent. Call outside the frontend lock. *)

val flush_txn_commit : t -> slot:int -> lsn:int -> Logrec.op -> unit
(** Transaction commit point: store the single-slot [Txn_commit] record's
    LSN word and persist its line — the one atomic step that makes the
    whole preceding span (already durable via {!flush_batch}) replayable.
    Under [Config.Skip_txn_commit_record] the persist is skipped (checker
    fault): an acknowledged transaction's span can then evaporate
    wholesale on power failure. Call outside the frontend lock. *)

val persist_span : t -> slot:int -> slots:int -> unit
(** Persist [slots] consecutive slots starting at [slot] with one flush +
    fence — the batch-commit counterpart of {!persist_slot}. A no-op under
    [Config.Skip_batch_commit_fence] (checker fault). *)

val commit_record : t -> slot:int -> unit
(** Set and persist the commit word. *)

val set_commit_word : t -> slot:int -> unit
(** Store the commit word without persisting — used under the frontend
    lock so a concurrent log swap sees the commit; pair with
    {!persist_slot} outside the lock. *)

val persist_slot : t -> slot:int -> unit

type entry = { lsn : int; slot : int; committed : bool; op : Logrec.op }

val scan : t -> entry list
(** All valid records in ascending LSN order, skipping torn/stale slots. *)

val resolve_txn_spans : entry list -> entry list
(** Resolve transaction framing over one log's {!scan}: members of a span
    whose [Txn_commit] record probed valid (the commit point) are
    surfaced with [committed = true]; members of a torn span (missing or
    broken chain, or no valid commit record) are dropped; the framing
    records themselves never escape. Non-member records pass through
    untouched. Callers that feed replay must run this before filtering on
    [committed] — it is the engine's pending-transaction buffer. *)

val committed : t -> above:int -> entry list
(** The replay set of one log, in one pass: exactly
    [scan t |> resolve_txn_spans |> List.filter keep], where [keep e] is
    [e.committed && e.lsn > above] and [e.op] is not a [Noop]. The slots
    are walked with {!scan}'s stepping and transaction spans resolved as
    the entries go by, so only the output list is built. Counts as one
    scan on [oplog.scans]. *)

val recover_tail : t -> unit
(** Set {!tail} to the first slot after the last valid record, so appends
    can continue after recovery. *)

val fsck : t -> string list
(** Structural check of the persistent region: header magic and LSN base,
    and for every slot that validates as a record, a sane commit word and
    in-bounds extent. Returns human-readable violations (empty = clean).
    Slots that fail validation are not errors — torn appends are expected
    durable states. *)
