(** Bitmap allocation pool inside a {!Space} reserved region.

    DStore's block pool (SSD blocks) and metadata pool (metadata-zone
    entries) are instances of this (§4.2). The paper describes circular
    free buffers; we use bitmaps with a circular scan hint instead so that
    checkpoint replay can mark the {e specific} ids recorded in a log
    record — a commutative operation, which is what lets non-conflicting
    records replay in any order (observational equivalence, §3.7, and
    DESIGN.md deviation 2).

    All state (hint + bitmap words) lives in the space, so it is carried
    by clones and recovery copies. Not internally synchronized: DStore
    calls it under the pool lock (step 1/5 of the write pipeline). *)

type t

val bytes_needed : int -> int
(** Reserved-region size for a pool of [count] ids. *)

val format : Dstore_memory.Space.t -> off:int -> count:int -> t
(** Initialise (all ids free) in a reserved region at [off]. *)

val attach : Dstore_memory.Space.t -> off:int -> count:int -> t

val count : t -> int

val alloc : t -> int
(** Next free id, circular scan from the hint; -1 (and no allocation)
    when every id is taken. *)

val alloc_run : t -> int -> (int * int) list option
(** [alloc_run t n] allocates [n] ids, greedily coalescing adjacent ones,
    returning extents [(first, len)] in allocation order. [None] (and no
    allocation) if fewer than [n] ids are free. *)

val set_allocated : t -> int -> unit
(** Mark one id allocated — the checkpoint/recovery replay path. Must be
    free. Moves the hint past [id], as {!alloc} would have: replaying a
    record's ids in order leaves the hint where the live allocator left
    it, so the allocator state recovery rebuilds depends only on the
    replayed records. *)

val free : t -> int -> unit
(** Must be allocated. *)

val is_allocated : t -> int -> bool

val allocated : t -> int
(** Number of allocated ids (O(words)). *)
