(** Sized, strictly-volatile DRAM object cache.

    A byte-budgeted CLOCK cache over whole objects, sitting in front of
    the SSD data plane on the read path. Three properties drive the
    design:

    - {b Volatile by construction.} The cache lives entirely in process
      DRAM and is never written to PMEM or SSD, so it is irrelevant to
      crash recovery: a recovered store simply starts cold. Nothing in
      this module touches a persistence domain.

    - {b Byte-budgeted CLOCK.} Entries are whole objects; the budget
      bounds the sum of resident buffer capacities. Eviction is the
      classic second-chance clock sweep: a hit sets the entry's
      reference bit, the hand clears bits until it finds an unreferenced
      victim. Objects larger than the budget are never admitted.

    - {b Allocation-recycling.} Evicted and invalidated buffers return
      to per-size-class free pools (capacities are rounded up to powers
      of two) and are reused for later fills, so a steady-state read
      loop allocates no new [Bytes] per operation — the hot path is
      GC-quiet.

    Concurrency: callers serialize access externally (in DStore the
    cache is consulted inside the reader protocol and maintained from
    the write pipeline; the discrete-event simulation runs cache calls
    atomically between scheduling points). A buffer returned by
    {!borrow} is only valid until the next cache mutation. *)

type t

type stats = {
  budget : int;  (** configured byte budget *)
  bytes : int;  (** resident buffer capacity (bytes) *)
  entries : int;  (** live cached objects *)
  hits : int;
  misses : int;
  evictions : int;  (** clock victims dropped to fit the budget *)
  invalidations : int;  (** entries dropped by writers *)
  fills : int;  (** miss-path insertions *)
  recycled : int;  (** fills served from the free pools (no allocation) *)
}

val create : budget:int -> t
(** [create ~budget] makes an empty cache bounded to [budget] bytes of
    resident buffer capacity. [budget <= 0] yields a cache that admits
    nothing (every lookup is a miss). *)

val budget : t -> int

val borrow : t -> string -> (Bytes.t * int) option
(** [borrow t key] is [Some (buf, len)] when [key] is cached: [buf] is
    the cache's own buffer and the object's bytes are [buf[0..len)].
    The view is zero-copy and valid only until the next [put],
    [invalidate], or [clear] — callers must copy out or finish with it
    before mutating the cache. Counts a hit (and sets the entry's
    reference bit) or a miss. *)

val put : t -> string -> Bytes.t -> pos:int -> len:int -> unit
(** [put t key src ~pos ~len] caches [len] bytes of [src] at [pos]
    under [key], copying into a recycled (or freshly grown) buffer and
    evicting clock victims until the budget holds. Replaces any
    existing entry in place (reusing its buffer when the capacity
    suffices). Objects with [len] beyond the budget are not admitted. *)

val invalidate : t -> string -> unit
(** Drop [key] if cached; its buffer returns to the free pools. *)

val clear : t -> unit
(** Drop every entry (counters are preserved; free pools are kept so a
    refill still recycles). *)

val stats : t -> stats
val entries : t -> int
val bytes : t -> int
val hits : t -> int
val misses : t -> int
val evictions : t -> int
