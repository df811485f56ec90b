(** DIPPER log records: the logical operations DStore logs, and their wire
    format (Figure 3 of the paper, adapted to a 64-byte-slotted log — see
    DESIGN.md deviation 1).

    A record occupies one or more contiguous 64 B slots:

    {v
    slot 0:  lsn u64 | commit u64 | len_slots u16 | op u8 | pad u8 | crc u32
             | payload (40 B) ...
    slot k:  payload continuation (64 B each)
    v}

    The LSN is written and flushed {e last} (reverse-order flush), so a
    record is valid iff its stored LSN equals the slot/LSN equation for its
    position and its CRC-32C validates; the commit word (excluded from the
    CRC) is set and flushed only after the operation's data is durable. *)

type extent = int * int
(** [(first_block, count)]. *)

type op =
  | Put of {
      key : string;
      size : int;
      meta : int;
      extents : extent list;
      freed_meta : int;  (** Metadata entry released by an overwrite; -1 if none. *)
      freed_extents : extent list;
    }
      (** Whole-object write. Allocated {e and} released ids are logged so
          replay is allocation-exact and order-robust (DESIGN.md
          deviation 2); releases happen at commit time on the frontend. *)
  | Create of { key : string; meta : int }
      (** [oopen] with creation, before any data is written. *)
  | Write of { key : string; meta : int; size : int; new_extents : extent list }
      (** Metadata-modifying partial write: the object grew to [size],
          gaining [new_extents]. In-place overwrites log nothing (§4.3). *)
  | Delete of { key : string; meta : int; extents : extent list }
      (** Removal; the released ids are logged for the same reason. *)
  | Noop of { key : string }
      (** [olock]'s lock record (§4.5): ignored by recovery, visible to
          conflict lookups. *)
  | Phys of { images : (int * string) list }
      (** Physical logging baseline: redo images [(space_offset, bytes)]. *)
  | Txn_begin of { txn : int; members : int }
      (** Opens a transaction span: the next [members] records (in slot
          order, contiguous by construction — the whole span is staged
          under one frontend-lock hold) are the transaction's write-set. *)
  | Txn_commit of { txn : int }
      (** Closes a transaction span. Its validity (LSN line durable) {e is}
          the transaction's commit point: replay surfaces the member
          records iff this record probes valid, regardless of the members'
          own commit words — all-or-nothing by construction. *)

val op_key : op -> string option
(** The object name an operation conflicts on ([None] for [Phys] and the
    transaction framing records). *)

val header_bytes : int
(** 24. *)

val slot_bytes : int
(** 64. *)

val payload_bytes : op -> int
(** Size of the serialized operation (without the record header),
    computed without encoding it. *)

val encode_into : op -> Bytes.t -> int -> int
(** [encode_into op b pos] serializes [op] into [b] starting at [pos] and
    returns the offset just past it, [pos + payload_bytes op]. Raises
    [Invalid_argument] if [b] is too short. *)

val encode_payload : op -> Bytes.t
(** [op] serialized into a fresh buffer of [payload_bytes op] bytes. *)

val decode_payload : ?len:int -> tag:int -> Bytes.t -> op
(** Inverse of [encode_payload]; [tag] comes from the header. Decodes
    the first [len] bytes of the buffer (default: all of it) and never
    reads past them, so a reused buffer longer than the payload is safe.
    Raises [Failure] on malformed or truncated input. *)

val tag_of_op : op -> int

val slots_needed : op -> int
(** Total slots for the record carrying [op]. *)

val put_max_slots : string -> int -> int
(** [put_max_slots key nblocks] bounds the slots of the [Put] a
    whole-object write of [key] over [nblocks] blocks logs, assuming every
    block is its own extent and an overwritten object spans up to four
    more. Computable before the write takes any lock; a record that
    outgrows it is sized as built. *)

val record_bytes : op -> int
(** Header + payload size (before slot rounding) — the paper's "32 B plus
    the object name" claim is checked against this in tests. *)
