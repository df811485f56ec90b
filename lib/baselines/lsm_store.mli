(** LSM-tree baseline: the "continuous async checkpoint" persistence
    technique of PMEM-RocksDB (Table 1, §2.1 of the paper).

    Writes append the full key+value to a PMEM write-ahead log and insert
    into a DRAM memtable. A full memtable is frozen into the L0 set (still
    DRAM, as the paper notes for PMEM-RocksDB); a background thread flushes
    and compacts L0 runs into sorted runs on the SSD. When the L0 set
    reaches its limit while compaction is busy, writers {e stall} — the
    RocksDB write-stall that violates quiescent freedom in Figure 7 — and
    the continuous background compaction keeps the SSD busy, which is the
    paper's explanation for its inconsistent throughput.

    Recovery replays the WAL (which is truncated only once its memtables
    are durable on the SSD) over the persistent run catalog kept in PMEM. *)

open Dstore_platform
open Dstore_pmem
open Dstore_ssd

type t

type config = {
  memtable_bytes : int;  (** Freeze threshold. *)
  l0_limit : int;  (** Frozen memtables allowed before write stall. *)
  run_limit : int;  (** SSD runs before a major compaction. *)
  wal_bytes : int;
  max_objects : int;
}

val default_config : config

val pmem_bytes : config -> int

val create : Platform.t -> Pmem.t -> Ssd.t -> config -> t

val recover : Platform.t -> Pmem.t -> Ssd.t -> config -> t

val put : t -> string -> Bytes.t -> unit

val get : t -> string -> Bytes.t -> int

val delete : t -> string -> bool

val flush_now : t -> unit
(** Force memtable freeze + flush (testing aid). *)

val stop : t -> unit

type stats = {
  mutable flushes : int;
  mutable compactions : int;
  mutable write_stalls : int;
  mutable stall_ns : int;
  mutable recovery_metadata_ns : int;
  mutable recovery_replay_ns : int;
}

val stats : t -> stats

val footprint : t -> int * int * int
