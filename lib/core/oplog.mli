(** A DIPPER operation log: a PMEM region of 64-byte slots with the
    reverse-order-flush append protocol of §3.4.

    Two of these exist per store (active + archived, swapped by pointer at
    checkpoint time). LSNs are derived from slot positions — a record
    starting at slot [k] of a log whose epoch base is [b] has LSN [b + k] —
    which is what lets recovery validate records positionally and skip torn
    multi-slot records (DESIGN.md deviation 1).

    Appending is split to keep the paper's lock-hold time (<300 ns):
    {!reserve} + {!write_record} run inside the pool critical section and
    only store bytes; {!persist} runs outside it and performs the actual
    persistence protocol — payload lines first, then the LSN word is
    written and its line flushed {e last}, so a crash can never leave a
    valid-looking record with unpersisted payload. A record found by
    {!scan} is therefore valid only if its LSN satisfies the slot equation
    {e and} its CRC-32C (over LSN, header and payload) matches; the commit
    word sits outside the CRC and is set and persisted separately by
    {!commit} once the operation's data is durable.

    {!persist}, {!commit} and {!flush_txn_commit} are the whole
    persistence surface: each picks its protocol from the number of
    records it covers, so callers never do. *)

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

val persist : t -> slot:int -> records:int -> unit
(** Make the [records] (at least one) records staged with {!write_record}
    at consecutive slots from [slot] durable and valid, but uncommitted.
    One record takes the §3.4 protocol: its continuation lines are flushed
    and fenced, then its LSN word is stored and its line persisted. Two or
    more take two coalesced rounds, whatever their number: one flush +
    fence over the whole span, every LSN word stored, then a second flush
    + fence over the span. Each record keeps the reverse-order invariant
    (payload durable strictly before its LSN line), so after a crash any
    subset of the span may survive, each member individually
    valid-or-absent. A [Txn_commit] record in the span is flushed but keeps
    a zero LSN word: {!flush_txn_commit} writes it. Under
    [Config.Skip_payload_flush] (checker fault) only LSN lines are
    flushed. Call outside the frontend lock. *)

val commit : t -> slot:int -> records:int -> unlock:(unit -> unit) -> unit
(** Commit the [records] (at least one) records at consecutive slots from
    [slot]: store every commit word, call [unlock], then persist the
    words — one record's line, or the whole span with one flush + fence.
    The caller holds the frontend lock and passes its release as [unlock],
    so a log swap that takes the lock next sees the commit and the
    persist runs outside it. Under [Config.Skip_commit_persist] (one
    record) or [Config.Skip_batch_commit_fence] (a span) the persist is
    skipped (checker faults). *)

val flush_txn_commit : t -> slot:int -> unit
(** Transaction commit point: store the single-slot [Txn_commit] record's
    LSN word and persist its line — the one atomic step that makes the
    whole preceding span (already durable via {!persist}) replayable.
    Under [Config.Skip_txn_commit_record] the persist is skipped (checker
    fault): an acknowledged transaction's span can then evaporate
    wholesale on power failure. Call outside the frontend lock. *)

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
