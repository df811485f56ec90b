(** Shared replication protocol types.

    DStore replication ships {e logical operations with payloads}, not
    raw oplog records: a [Logrec] record carries metadata and extents
    but its data lives on the primary's SSD, and in-place [owrite] page
    overwrites log nothing at all (§4.3), so the oplog alone cannot
    rebuild a backup. Instead the primary intercepts the Table 2
    mutating calls, assigns each a replication sequence number in local
    commit order, and ships it over a {!Dstore_platform.Link}. Entries
    and acks name ops by that sequence number alone: the engine exports
    no oplog coordinate, so nothing ties a backup to the primary's log
    layout.

    A group commit ships as {e one} [R_batch] entry — the replication
    span mirrors the local group commit, and the backup re-executes it
    as one group commit of its own.

    A put or group commit travels as two messages: a {!Stage} with its
    payloads before the primary runs it, so the backup's SSD write
    overlaps the primary's, and the ordering {!entry} at commit, a
    header that names the stage. *)

open Dstore_core

(** When is a mutating op acknowledged durable to the caller?

    - [Async]: when the primary's local commit persists; backups trail.
    - [Ack_one]: additionally, at least one backup has applied and
      persisted the op's span.
    - [Ack_all]: every attached backup has. *)
type durability = Async | Ack_one | Ack_all

val durability_name : durability -> string
(** ["async"] / ["ack-one"] / ["ack-all"]. *)

val durability_of_string : string -> durability option

(** A shipped logical operation. Payloads ride along (see above). *)
type rop =
  | R_put of string * Bytes.t
  | R_delete of string
  | R_create of string  (** [oopen ~create:true] of a missing object. *)
  | R_write of { key : string; off : int; data : Bytes.t }
  | R_batch of Dstore.batch_op list
      (** One whole group commit: applied as one group commit. *)

val rop_ops : rop -> int
(** Client operations the entry represents: batch length for [R_batch],
    1 otherwise. Weights replication wait accounting the same way
    [n_ops] weights group-commit spans. *)

(** The ordering entry of one op, shipped at commit. *)
type entry = {
  rseq : int;  (** Replication sequence number, in primary commit order. *)
  epoch : int;  (** The primary's epoch when shipped. *)
  tag : int;  (** The {!Stage} sent ahead of it; 0 for none. *)
  op : rop;
      (** The full op: for a receiver without that stage, and the journal. *)
}

(** One data-link message. Tags are scoped to one primary incarnation. *)
type msg =
  | Stage of { tag : int; epoch : int; ops : Dstore.batch_op list }
      (** Claim ids for [ops] and write their payloads now. *)
  | Drop of { tag : int; epoch : int }
      (** The op of [tag] raised on the primary: give its claims back. *)
  | Entry of entry

val header_bytes : int
(** Wire size of a message without payload. *)

val msg_bytes : msg -> int
(** Wire size of a message with its payload. *)

type ack_msg = {
  a_epoch : int;
  a_rseq : int;  (** Highest applied-and-persisted rseq ([a_ok]). *)
  a_ok : bool;  (** [false]: rejected — the sender's epoch is stale. *)
}

val apply_entry : Dstore.ctx -> rop -> unit
(** Re-execute a shipped op through the Table 2 API; durable on return
    (append-and-persist). Shared by {!Backup} and by test harnesses that
    replay a shipped sequence against a reference engine, so backup
    state is byte-reproducible by construction. *)
