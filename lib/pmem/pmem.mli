(** Simulated byte-addressable persistent memory (Optane DCPMM stand-in).

    The device models exactly the hardware semantics that make PMEM
    programming hard (§2 of the paper):

    - CPU stores land in a volatile cache: each 64 B line dirtied since its
      last flush may or may not survive a crash (spurious eviction can
      persist it early; power loss drops it).
    - Persistence is explicit: {!flush} (clwb/clflushopt) writes lines back,
      {!fence} (sfence) orders them. {!persist} is the common pairing.
    - Store atomicity is 8 bytes: on a crash, a dirty line can persist
      partially, at 8-byte-word granularity.

    {!crash} applies that adversarial model so crash-consistency tests can
    explore orderings real hardware exhibits only rarely. Latency and
    bandwidth are charged to the calling thread via the platform, with
    parameters calibrated from the paper (single-line persist ≈ 600 ns,
    read ≈ 30 GB/s, write ≈ 10 GB/s).

    Accessor reads/writes themselves charge no time — per-operation CPU
    costs are charged at protocol level by the stores (see
    [Config.costs]) — so simulations stay fast while flush/fence/bulk
    traffic pays its way. *)

open Dstore_platform

type t

(** Shared DIMM bandwidth domain. Several devices created with the same
    [Bw.t] in [config.share] model shards backed by distinct namespaces on
    the same physical DIMMs: each concurrent bulk transfer (checkpoint
    clone reads, shadow-space persist sweeps — anything ≥ 4 KB) divides the
    bandwidth evenly, so overlapping checkpoints slow each other {e and}
    every frontend log flush down by the domain's load factor. This is what
    makes coinciding cluster checkpoints visible as a tail spike. *)
module Bw : sig
  type t

  val create : unit -> t

  val active : t -> int
  (** Bulk transfers currently in flight in the domain. *)

  val peak : t -> int
  (** High-water mark of {!active} since {!create}. *)

  val busy_at : t -> now:int -> int
  (** Cumulative virtual time (up to [now]) the domain has had at least
      one bulk transfer in flight — the "a checkpoint holds the DIMMs"
      clock that span recorders sample for interference blame. *)

  val contended_flushes : t -> int
  (** Foreground (non-bulk) flushes that paid the shared-load rate
      because a bulk transfer was in flight. *)

  val contended_extra_ns : t -> int
  (** Total extra latency those flushes paid versus an idle domain. *)
end

type config = {
  size : int;  (** Device capacity in bytes. *)
  flush_ns : int;  (** Latency of a single-line writeback. *)
  fence_ns : int;  (** Latency of draining the write queue. *)
  read_bw : float;  (** Sequential read bandwidth, bytes/ns. *)
  write_bw : float;  (** Sequential write bandwidth, bytes/ns. *)
  crash_model : bool;
      (** Track dirty-line undo images so {!crash} works. The first store
          to a clean line copies the line's durable content into a slot
          of one growable arena and notes the slot in a table with one
          int per device line (size / 8 bytes, made at {!create});
          {!flush} hands the slot back for reuse, and {!crash} empties
          both. A steady write/flush load therefore stops allocating once
          the arena covers its peak dirty set. Disable for pure
          performance runs to skip the bookkeeping and the table. *)
  share : Bw.t option;
      (** Shared bandwidth domain, or [None] (default) for a dedicated
          device whose transfers never contend. *)
}

val default_config : config
(** 256 MB device, flush 100 ns, fence 200 ns, 30/10 GB/s, crash model
    on. A single-line persist is 300 ns; a log append + commit pair is
    ~600 ns, matching the paper's Table 3 (log flush = 616 ns). *)

val create : Platform.t -> config -> t

val size : t -> int

(** {1 CPU accessors (cached, not persistent until flushed)} *)

val get_u8 : t -> int -> int

val set_u8 : t -> int -> int -> unit

val get_u16 : t -> int -> int

val set_u16 : t -> int -> int -> unit

val get_u32 : t -> int -> int

val set_u32 : t -> int -> int -> unit

val get_u64 : t -> int -> int
(** 63-bit values stored as 64-bit little-endian words. *)

val set_u64 : t -> int -> int -> unit

val blit_to_bytes : t -> src:int -> Bytes.t -> dst:int -> len:int -> unit

val blit_from_bytes : t -> Bytes.t -> src:int -> dst:int -> len:int -> unit

val blit_within : t -> src:int -> dst:int -> len:int -> unit
(** Ranges must not overlap. *)

val fill : t -> int -> int -> int -> unit
(** [fill t off len byte]. *)

val crc32c : ?init:int -> t -> off:int -> len:int -> int
(** CRC-32C of the device bytes [off, off+len), computed in place (no
    copy, no charge); [init] chains a previous result as in
    {!Dstore_util.Checksum.crc32c}. *)

(** {1 Persistence} *)

val flush : t -> int -> int -> unit
(** [flush t off len] writes back every cache line intersecting the range.
    Charges [flush_ns] plus pipelined per-line bandwidth cost. As in the
    standard PMEM-testing model (pmemcheck/Yat), a flushed line is durable
    immediately; {!fence} contributes ordering cost. Missing-flush bugs —
    the class the paper's reverse-order protocol defends against — are
    therefore caught by {!crash}. *)

val fence : t -> unit

val persist : t -> int -> int -> unit
(** [flush] followed by [fence]. *)

val bulk_read_cost : t -> int -> unit
(** Charge the calling thread for a bandwidth-limited sequential read of
    [len] bytes (used by recovery when copying PMEM into DRAM). *)

val bulk_busy_ns : t -> int
(** {!Bw.busy_at} of the device's shared domain at the current virtual
    time; 0 when the device has no shared domain. *)

val with_bulk : t -> (unit -> 'a) -> 'a
(** Run [f] with this device registered as {e one} active bulk transfer in
    its shared bandwidth domain for the whole duration. A segmented
    transfer — a delta clone issuing many sub-4 KB blits, a sparse persist
    sweep — is one logical bulk operation; without this wrapper each
    segment would either dodge bulk pricing (too small to classify) or
    register/deregister per segment, flapping the domain's active count.
    Inside [f], {!flush} and {!bulk_read_cost} pay the current load factor
    without re-registering. Reentrant; a no-op when the device has no
    shared domain. *)

(** {1 Persistence-event hook}

    Every flush of a non-empty range and every fence is one {e persistence
    event}. The counter is a single field increment (allocation-free) and
    is deterministic across identical DES runs, so a crash-point explorer
    can count events in one run and stop the world at an exact index in a
    replay. *)

val persist_events : t -> int
(** Monotonic count of persistence events since {!create}. *)

val set_persist_hook : t -> (int -> unit) option -> unit
(** Install (or clear) a callback invoked with the new event count on
    every persistence event, before the device charges latency. The hook
    may raise to abort the run at that exact event — the raised exception
    propagates out of the [flush]/[fence] call. *)

(** {1 Crash injection} *)

type crash_mode =
  | Drop_all  (** Every unflushed dirty line reverts. *)
  | Keep_all  (** Every dirty line happens to have been evicted (persists). *)
  | Random of Dstore_util.Rng.t
      (** Each dirty line independently persists fully, reverts fully, or
          persists a random subset of its 8-byte words. *)

val crash : t -> crash_mode -> unit
(** Apply the crash model: resolve every dirty line per [crash_mode] and
    mark the device clean. Lines are resolved in undo-slot order, which
    is deterministic for a given history; [Random] draws its numbers in
    that order. The caller then discards all volatile state and
    runs recovery against the surviving bytes. *)

val dirty_lines : t -> int
(** Number of lines currently dirty (written and not yet persisted). A
    zero-length store dirties nothing. *)

val undo_slots : t -> int
(** Undo-image slots the crash-model arena has handed out since
    {!create} or the last {!crash}, live and free: at most the peak of
    {!dirty_lines} over that time. A flushed line's slot goes back to a
    free stack and is handed out again before the arena grows. *)

(** {1 Statistics} *)

type stats = {
  mutable bytes_written : int;  (** Bytes stored by the CPU. *)
  mutable bytes_flushed : int;  (** Bytes written back by flushes. *)
  mutable bytes_read_bulk : int;
  mutable flush_calls : int;
  mutable fence_calls : int;
}

val stats : t -> stats
(** Live counters (monotonic); sample and diff for bandwidth timelines. *)

val attach_obs : t -> Dstore_obs.Obs.t -> unit
(** Register the device's counters as callback gauges on the handle's
    registry ([pmem.flush_calls], [pmem.fence_calls], [pmem.bytes_written],
    [pmem.bytes_flushed], [pmem.bytes_read_bulk], [pmem.lines_flushed],
    [pmem.dirty_lines], plus [pmem.bw_*] bandwidth-contention views on
    shared-domain devices). The hot accessors are unchanged; views are
    evaluated at snapshot time. *)
