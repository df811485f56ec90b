(** A self-contained, relocatable data-structure region — the unit DIPPER
    checkpoints, clones and recovers.

    A space bundles a slab allocator with everything it allocates, all
    addressed by offsets relative to the space base (§3.3 of the paper:
    relative pointers + identical DRAM/PMEM allocators). Its free lists are
    intrusive (threaded through the free blocks) and its bump pointer and
    structure roots live in the header, so the {e entire} allocator state is
    part of the region. Consequences, exactly as the paper requires:

    - cloning a space is one bulk copy of its used prefix — this is how a
      checkpoint "creates a copy of the allocator state" and of every shadow
      structure in one stroke (§3.5);
    - recovery can "replicate the PMEM allocator state in the DRAM
      allocator" (§3.6) by copying the PMEM space into a DRAM arena and
      attaching.

    Layout: [header (4 KB) | reserved regions | slab heap]. Reserved
    regions (metadata zone, pool bitmaps) are carved at format time and are
    never freed, so their offsets — and hence the ids logged in DIPPER
    records — are identical across the volatile and shadow spaces. *)

type t

exception Out_of_space

val header_bytes : int

val format : Mem.t -> t
(** Initialise a fresh space covering the whole arena. *)

val attach : Mem.t -> t
(** Open an already-formatted space (e.g. after recovery copied it here).
    Raises [Invalid_argument] if the magic does not match. *)

val mem : t -> Mem.t

val reserve : t -> int -> int
(** [reserve t n] carves [n] bytes (16-aligned) that will never be freed.
    Only valid before the first {!alloc}. Returns the region offset. *)

val alloc : t -> int -> int
(** Slab-allocate at least [n] bytes (power-of-two size classes, 16 B min).
    Raises {!Out_of_space}. *)

val free : t -> int -> int -> unit
(** [free t off n] returns the block allocated by [alloc t n] at [off]. *)

val class_size : int -> int
(** The rounded size class [alloc] uses for a request of [n] bytes. *)

val get_root : t -> int -> int

val set_root : t -> int -> int -> unit
(** [set_root t slot v]. Slots [0, root_slots). *)

val used_bytes : t -> int
(** High-water mark: the prefix a clone must copy. *)

val persist_used : t -> unit
(** Flush the used prefix (no-op on DRAM arenas) — the end-of-checkpoint
    durability pass of §3.5. *)

val copy_into : t -> Mem.t -> t
(** [copy_into src dst] bulk-copies the used prefix of [src] into [dst]
    and attaches it. Device time must be charged separately by the caller
    (the checkpoint engine knows which devices are involved). *)

val copy_delta :
  t ->
  Mem.t ->
  page_bytes:int ->
  is_dirty:(int -> bool) ->
  on_page:(int -> unit) ->
  t * int
(** [copy_delta src dst ~page_bytes ~is_dirty ~on_page] incrementally
    re-synchronizes a stale ping-pong target: copies the pages [is_dirty]
    selects plus every page of the grown used prefix ([dst]'s recorded
    [used] up to [src]'s), attaches [dst] and returns it with the bytes
    copied. [on_page] fires for each copied page (possibly more than once —
    keep it idempotent); callers use it to know what to persist. Only
    correct when [dst] was byte-identical to [src] up to [dst]'s used
    prefix except on the dirty pages — i.e. [dst] is the half the previous
    checkpoint cloned and replayed, and [is_dirty] is that replay's write
    set. Raises [Invalid_argument] if [dst] is not a formatted space or its
    used prefix is out of range (callers fall back to {!copy_into}).
    Device time must be charged separately, as with {!copy_into}. *)

val free_list_bytes : t -> int
(** Bytes sitting on free lists (diagnostics / footprint accounting). *)

val fsck : t -> string list
(** Structural self-check: header magic and bounds, and a bounded,
    cycle-safe walk of every slab free list verifying each node lies
    16-aligned inside the heap. Returns human-readable violations
    (empty = clean). Read-only. *)
