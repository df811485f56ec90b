(** DStore: the decoupled object store (§4 of the paper).

    An embedded storage sub-system exposing both key-value ([oget]/[oput]/
    [odelete]) and filesystem-style ([oopen]/[oclose]/[oread]/[owrite])
    access to modifiable objects (Table 2). The control plane — object
    index (B-tree), metadata zone, block and metadata pools — lives in
    DRAM, made persistent by DIPPER shadow copies in PMEM; the data plane
    is an SSD with a power-loss-protected write cache (Figure 4).

    A whole-object write runs the paper's nine steps in a staged order
    (DESIGN.md decision 11): allocate blocks and a metadata page; write the
    data to the SSD; lock; scan for conflicting in-flight records; find the
    binding being replaced; append the logical log record and unlock; wait
    for readers of the object to drain; write the metadata entry and
    B-tree record (in parallel with other requests, by observational
    equivalence); commit and flush the log record. Allocating and writing
    the payload before the append keeps device time out of the window in
    which same-key requests wait. Three refinements over the paper's
    prose, all explained in DESIGN.md: allocated (and to-be-freed) extents
    are carried in the record so checkpoint replay is allocation-exact;
    blocks freed by an overwrite or delete are released only at commit so a
    crash before commit can never have handed a still-referenced block to
    another object; and a put rejected before its append ([Out_of_blocks],
    or [Dipper.Log_full] under [No_checkpoint]) gives back every id it
    claimed.

    All calls must run in platform thread context (a simulated process or
    a real thread). Each application thread creates its own {!ctx}
    ([ds_init]/[ds_finalize]). *)

open Dstore_platform
open Dstore_pmem
open Dstore_ssd

type t

type ctx

type obj
(** An open object handle (filesystem API). *)

type node = { pm : Pmem.t; ssd : Ssd.t }
(** One machine's device pair. The caller owns device construction so it
    can share a {!Pmem.Bw} bandwidth domain across machines (or not). *)

exception Object_not_found of string

exception Out_of_blocks

exception Would_wait of string
(** Raised by {!oget_versioned} to a context holding reservations (see
    {!reserve}) instead of waiting on the named key: it carries another
    context's reservation, or a NOOP record that may be an advisory lock.
    The engine counts it as a transaction abort. *)

(** {1 Environment} *)

val create :
  ?obs:Dstore_obs.Obs.t -> Platform.t -> Pmem.t -> Ssd.t -> Config.t -> t
(** Format a fresh store across the two devices. [obs] supplies an
    existing observability handle (keeps one span recorder and registry
    across crash/recover cycles); by default the engine builds one from
    the config ([obs_enabled]). *)

val recover :
  ?obs:Dstore_obs.Obs.t -> Platform.t -> Pmem.t -> Ssd.t -> Config.t -> t
(** Open an existing store after shutdown or crash (§3.6). *)

val is_initialized : Pmem.t -> bool

val stop : t -> unit
(** Stop background machinery. No final checkpoint: recovery replays the
    active log, as in the paper's clean-shutdown measurement. *)

(** {1 Snapshot transfer (replica catch-up)}

    A checkpoint-consistent image of the whole store, built from the
    published PMEM half (see {!Dipper.capture_image}) plus the data
    device, used by the replication layer to stream a re-syncing laggard
    back to currency: install the snapshot, then replay the journal
    suffix shipped after the snapshot cut. *)

type snapshot = {
  snap_space : Bytes.t;  (** Published space half, used prefix. *)
  snap_ssd : Bytes.t;  (** Whole data device. *)
}

val snapshot_bytes : snapshot -> int
(** Transfer size: what the streaming link should charge for. *)

val capture_snapshot : t -> snapshot
(** Copy the published half and the SSD to DRAM (device read costs
    charged). Only meaningful while the store is write-quiesced right
    after a {!checkpoint_now} — the replication primary provides that
    barrier. *)

val install_snapshot :
  ?obs:Dstore_obs.Obs.t ->
  Platform.t ->
  Pmem.t ->
  Ssd.t ->
  Config.t ->
  snapshot ->
  t
(** Overwrite both devices with the snapshot and recover a store from
    them. Crash-safe: the PMEM root is invalidated first and re-created
    last ({!Dipper.install_image}), so a crash mid-install leaves a
    visibly uninitialized node. *)

val ds_init : t -> ctx
(** Per-thread request context (Table 2: [ds_init]). *)

val ds_finalize : ctx -> unit

val ctx_store : ctx -> t
(** The store this context was created on. *)

(** {1 Key-value API} *)

val oput : ?span:Dstore_obs.Span.t -> ctx -> string -> Bytes.t -> unit
(** Store the whole object (create or replace). Durable on return.
    Raises [Out_of_blocks] when the SSD blocks or metadata ids run out and
    [Dipper.Log_full] when the log is full under [No_checkpoint]; a
    rejected put leaves both allocators as it found them.

    [?span] (here and on [odelete]/[obatch]/[owrite]) lets a wrapper own
    the operation's causal span: the engine books segments and stalls
    into the caller's span but does not finish it, so the replication
    façade can charge post-return ack waits ([Span.Repl_wait]) to the
    same record before closing it. *)

val oget : ctx -> string -> Bytes.t option
(** Fetch the whole object. *)

val oget_into : ctx -> string -> Bytes.t -> int
(** Zero-copy-ish variant: read into the caller's buffer, return the
    object size; -1 if absent. Raises [Invalid_argument] if the buffer
    is shorter than the object, leaving the key free for writers. On a
    DRAM-cache hit the bytes come straight out of the cached buffer —
    one copy, no index walk, no SSD. *)

val oget_view : ctx -> string -> Bytes.t -> (Bytes.t * int) option
(** Zero-copy borrow seam for hot read loops: [oget_view ctx key scratch]
    returns [(buf, len)] where [buf] is the cache's own buffer on a hit
    (nothing copied) or [scratch] filled from the SSD path on a miss
    (which also warms the cache). [None] if absent. No per-op allocation
    on either path; a miss raises [Invalid_argument] if [scratch] is
    shorter than the object, as {!oget_into} does.

    The borrowed view is invalidated by {e any} store mutation — a cache
    fill, write-through, or invalidation performed by any concurrent
    client, not just the caller's own next operation, may evict and
    recycle the underlying buffer. Consume the view before yielding
    (i.e. before any other store call); with concurrent writers prefer
    [oget_into], which copies out before any scheduling point. *)

val odelete : ?span:Dstore_obs.Span.t -> ctx -> string -> bool
(** Remove an object; [false] if it did not exist. Durable on return.
    [oput] and [odelete] run the group-commit pipeline of {!obatch} as a
    group of one, in a [Put] or [Delete] span. A delete logs a logical
    record under either logging mode. *)

val oexists : ctx -> string -> bool

(** {1 Group commit (batched updates)}

    The batched entry points amortize the write pipeline's persistence
    rounds (steps 1–5 and 9) across a whole batch: one frontend-lock
    acquisition, one coalesced log-append flush pass, one commit flush —
    while the per-object work (reader drain, structure updates,
    commit-time block releases) still runs per op. Allocation and the SSD
    payload writes are staged once per call, before any append, with the
    payloads written concurrently.

    Durability contract: {e no operation in a batch is acknowledged
    durable until the batch call returns; after a crash any subset of the
    batch may survive}, each member individually valid-or-absent. A
    (sub-)batch of one op takes the single-record flush protocol; [oput]
    and [odelete] are such batches. Batches
    with repeated keys are split into sub-batches at each repeat (a
    record's freed ids must predate its batch), so a pathological batch
    degrades gracefully toward per-op commits. *)

type batch_op = Bput of string * Bytes.t | Bdelete of string

val batch_key : batch_op -> string

val obatch : ?span:Dstore_obs.Span.t -> ctx -> batch_op list -> bool list
(** Execute a batch of updates under group commit; results in input
    order ([Bput] → [true], [Bdelete] → whether the key existed). Under
    [Physical] logging the ops run individually (redo-image capture is
    per-op by construction). Rejections raise as for [oput]; sub-batches
    committed before the rejection stay committed, and every id claimed
    for the rest of the call is given back. *)

val oput_batch : ctx -> (string * Bytes.t) list -> unit
(** [obatch] over puts only. Durable on return. *)

val odelete_batch : ctx -> string list -> bool list
(** [obatch] over deletes only; per-key existence results. *)

(** {1 Filesystem-style API} *)

type open_mode = Rd | Wr | Rdwr

val oopen : ctx -> string -> ?create:bool -> open_mode -> obj
(** Open an object. With [create:true] (default), a missing object is
    created empty (logged as a [Create] record). Raises
    {!Object_not_found} when [create:false] and absent. *)

val oclose : obj -> unit

val osize : obj -> int

val oread : obj -> Bytes.t -> size:int -> off:int -> int
(** Read up to [size] bytes at object offset [off]; returns bytes read
    (short at end of object). *)

val owrite : ?span:Dstore_obs.Span.t -> obj -> Bytes.t -> size:int -> off:int -> int
(** Write [size] bytes at object offset [off], extending the object if
    needed. In-place page overwrites log nothing (§4.3); extensions log a
    metadata record. Durable on return. *)

(** {1 Concurrency control} *)

val olock : ctx -> string -> unit
(** Acquire an advisory object lock: appends a NOOP record that conflict
    scans treat as an in-flight operation (§4.5). Blocks while another
    lock or write on the name is in flight. *)

val ounlock : ctx -> string -> unit
(** Release: commits the NOOP record. *)

(** {1 OCC transactions (backend of [lib/txn])}

    The store half of the transaction pipeline: versioned reads to build a
    read-set, and a single commit entry point that validates the read-set
    and appends the whole write-set as one all-or-nothing log span
    ([Txn_begin], members, [Txn_commit] — see [Dipper]). The user-facing
    handle with buffering and retry lives in [Dstore_txn]. *)

val key_version : ctx -> string -> int
(** The key's committed-version counter (see [Dipper.key_version]). *)

val oget_versioned :
  ?span:Dstore_obs.Span.t -> ctx -> string -> int * Bytes.t option
(** [oget] with the key's committed version — the version is read
    strictly {e before} the value, so a racing commit can only make the
    observation stale (caught by validation), never silently fresh.
    Single-lookup: the version is observed by the reader entry's own
    conflict-scan lock round ([Dipper.conflicting_ticket_versioned]) and
    the value is fetched inside the same reader window — one
    frontend-lock round and one index pass, where the naive composition
    [key_version] + [oget] paid two of each. With [span] (a
    transaction's), the read's segments and conflict waits are booked on
    it instead of on a [Get] span of the read's own. *)

val reserve : ?span:Dstore_obs.Span.t -> ctx -> string list -> unit
(** Reserve the keys for this context, all or nothing ([Dipper.reserve]);
    the context must hold no reservation. Until {!release}, every other
    context's reads and writes of the keys wait, and this context's own
    operations pass. A holder's {!oget_versioned} and
    {!txn_commit_writes} never wait on another holder's reservation or on
    a NOOP: the read raises {!Would_wait}, the commit returns [Error]. *)

val release : ctx -> unit
(** Drop every reservation the context holds and wake their waiters. *)

val txn_commit_writes :
  ?span:Dstore_obs.Span.t ->
  ctx ->
  reads:(string * int) list ->
  writes:batch_op list ->
  (unit, string) result
(** Atomically commit [writes] provided every [(key, version)] in [reads]
    still matches the committed state. Keys in [writes] must be pairwise
    distinct. Validation precedes all device work: [Error key] names the
    first stale read; nothing is logged, written to the SSD or applied,
    and staged allocations are returned. On [Ok ()], the whole
    write-set is durable (single transaction span) and structure updates
    are applied. An empty write-set validates only (read-only commit).
    Requires [Logical] logging. *)

(** {1 Introspection} *)

val object_count : t -> int

val iter_names : t -> (string -> unit) -> unit
(** Object names in lexicographic order. *)

val olist : ctx -> prefix:string -> string list
(** Names with the given prefix, in order — a cheap by-product of the
    B-tree's leaf chain, useful for directory-style listings (see
    [examples/filestore.ml]). *)

val checkpoint_now : t -> unit

val engine : t -> Dipper.t

val config : t -> Config.t

(** {1 Verification seam (dstore_check)} *)

(** Structure handles over one space, for read-only integrity checking.
    Walking these mutates nothing. *)
type internals = {
  i_space : Dstore_memory.Space.t;
  i_btree : Dstore_structs.Btree.t;
  i_zone : Dstore_structs.Metazone.t;
  i_blockpool : Dstore_structs.Bitpool.t;
  i_metapool : Dstore_structs.Bitpool.t;
}

val internals : t -> internals
(** Handles over the volatile (DRAM) system space. *)

val shadow_internals : t -> internals
(** Fresh handles over the published PMEM shadow space — the state a
    crash right now would recover from (before log replay). *)

val page_bytes : t -> int
(** The SSD page size the store allocates blocks in. *)

type footprint = { dram : int; pmem : int; ssd : int }

val footprint : t -> footprint

(** {1 DRAM object cache}

    A sized, strictly-volatile CLOCK cache over whole objects
    ([Config.cache_bytes] > 0 enables it; see [Dstore_cache.Cache] and
    the "Read cache" section of DESIGN.md). Reads consult it inside the
    reader window; the write pipeline write-throughs puts and
    invalidates deletes/overwrites inside the fenced window after
    [Dipper.wait_readers], so a cached read can never return a value
    older than a committed write. Never persisted: recovery starts
    cold. *)

val cache_stats : t -> Dstore_cache.Cache.stats option
(** Hit/miss/eviction/byte counters; [None] when the cache is disabled. *)

val cache_clear : t -> unit
(** Drop every cached object (volatile state only; correctness is
    unaffected — subsequent reads refill from the SSD path). *)

(** {1 Observability} *)

val obs : t -> Dstore_obs.Obs.t
(** The store's observability handle (shared with the engine): metrics
    registry with device counters ([pmem.*], [ssd.*]), engine stat views
    ([dipper.*]) and per-operation latency histograms ([op.put],
    [op.get], [op.delete], [op.write], [op.read]); the span recorder,
    whose segments partition every write by pipeline step (Table 3 is
    their per-put sums), every checkpoint by phase and every recovery by
    stage, and whose blames name every stall. *)
