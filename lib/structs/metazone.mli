(** The metadata zone: a fixed array of 64-byte object-metadata entries in
    a {!Space} reserved region (§4.2).

    Entry ids are array indices, identical across the volatile space and
    its PMEM shadow — which is why a DIPPER log record can name the
    metadata page it used and replay can reconstruct the same entry.
    An entry stores the object size and its SSD block extents; objects
    with more than 5 extents spill the remainder into a slab-allocated
    array (a space-internal offset, so it may legitimately differ between
    the two spaces — observational equivalence at work).

    Entry allocation/freeing is the caller's job via a {!Bitpool} (the
    metadata pool). *)

type t

type extent = { start : int; len : int }
(** [len] SSD blocks beginning at block [start]. *)

val inline_extents : int
(** 5. *)

val bytes_needed : int -> int
(** Reserved-region size for [count] entries. *)

val format : Dstore_memory.Space.t -> off:int -> count:int -> t
(** Initialise: every entry free. *)

val attach : Dstore_memory.Space.t -> off:int -> count:int -> t

val write_object : t -> int -> size:int -> extent list -> unit
(** [write_object t id ~size extents] fills entry [id]. If the slot still
    holds a previous (released) object's entry, its spill array is
    reclaimed first — entry slots are reclaimed lazily at reuse, which is
    what makes entry-id recycling safe under parallel checkpoint replay.
    Extents beyond the inline capacity spill into the space heap. *)

val read_object : t -> int -> int * extent list
(** [size, extents] of a live entry. *)

val set_size : t -> int -> int -> unit
(** Update the size of a live entry (partial-write extension). *)

val append_extents : t -> int -> extent list -> unit
(** Add extents to a live entry (an [owrite] that grew the object). *)

val free_object : t -> int -> unit
(** Clear the entry and free any spill array. The entry id itself is
    released by the caller via the metadata pool. *)

val is_live : t -> int -> bool

val blocks_of : extent list -> int
(** Total block count covered. *)
