(** Multi-key OCC transactions over the logical log.

    A transaction buffers reads and writes against one store context and
    commits atomically: the read-set (each key's committed version at
    first observation) is validated under the engine's frontend lock, and
    the write-set is appended as a single all-or-nothing log span —
    [Txn_begin], the member records, [Txn_commit] — whose commit record's
    durability is the transaction's commit point. After a crash, recovery
    surfaces either every member or none (see DESIGN.md "Transactions").

    Optimistic concurrency: [get]/[put]/[delete] never block other
    clients; conflicts surface at commit as an abort, and {!txn} retries
    the whole function, under key reservations from the second retry on,
    so it finishes in a bounded number of attempts. Commit validates before
    any device work, so an abort writes nothing; a validated commit holds
    its member keys for its append and structure updates, then passes
    them on to other transactions while its SSD payload writes run. A
    transaction that reads or overwrites a passed value commits after
    the one that wrote it. Writes are invisible to other clients that are
    not transactions (and to crash recovery) until commit succeeds. *)

type abort_reason =
  | Conflict of string  (** Validation failed: this key's version moved. *)
  | Cross_shard of string
      (** Cluster fast path: this key routes to a different shard than the
          transaction's first key ([Cluster.txn] only). *)

val pp_abort : abort_reason -> string

type t
(** An open transaction handle. Single-threaded: use from the owning
    client only. *)

val create : Dstore_core.Dstore.ctx -> t
(** Begin a transaction (manual control — the CLI's [txn begin]). Most
    callers should use {!txn} instead. *)

val get : t -> string -> Bytes.t option
(** Read through the transaction: the buffered write-set shadows the
    store (read-your-own-writes); a store read records the key's version
    for commit-time validation. *)

val put : t -> string -> Bytes.t -> unit
(** Buffer a whole-object put (last write per key wins). *)

val delete : t -> string -> unit
(** Buffer a delete. *)

val commit : t -> (unit, abort_reason) result
(** Validate and atomically apply the write-set. [Error (Conflict key)]
    if any read observation is stale — the store is untouched (no log
    record, no SSD write) and the handle is dead. A transaction with no
    writes validates only. Raises [Dipper.Dependency_failed] if a
    transaction whose value it took failed before its commit. *)

val abort : t -> unit
(** Discard the transaction (nothing to undo — writes were buffered). *)

val txn :
  ?retries:int ->
  Dstore_core.Dstore.ctx ->
  (t -> 'a) ->
  ('a, abort_reason) result
(** [txn ctx fn] runs [fn] with a fresh handle and commits; on abort it
    retries, up to [retries] more attempts (default 8). The first retry
    runs optimistically at once. Every later one first reserves, all or
    nothing, every key the earlier attempt touched plus the keys the
    context already holds ({!Dstore_core.Dstore.reserve}); a reservation
    holder that meets another's reservation or a NOOP aborts instead of
    waiting, so no two transactions wait on each other. A [fn] with a
    fixed key set therefore commits within 3 attempts. Reservation waits
    are booked as [Span.Txn_retry] blame on the transaction's span, and
    the reservations are released however the call ends. [fn] may call
    {!abort} to give up (no retry) or {!commit} itself; a handle left
    active is committed on return. [fn] must let
    {!Dstore_core.Dstore.Would_wait} from {!get} propagate: it ends the
    attempt. *)
