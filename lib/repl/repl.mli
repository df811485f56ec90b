(** Shared replication protocol types.

    DStore replication ships {e logical operations with payloads}, not
    raw oplog records: a [Logrec] record carries metadata and extents
    but its data lives on the primary's SSD, and in-place [owrite] page
    overwrites log nothing at all (§4.3), so the oplog alone cannot
    rebuild a backup. Instead the primary intercepts the Table 2
    mutating calls, assigns each a replication sequence number in local
    commit order, and ships it over a {!Dstore_platform.Link}; the
    engine-level commit hook ({!Dstore_core.Dipper.set_commit_hook})
    supplies the oplog LSN watermark each shipped entry carries, so acks
    can be reported in both sequence and LSN terms.

    A group commit ships as {e one} [R_batch] entry — the replication
    span mirrors the [Oplog.flush_batch]/[persist_span] span boundaries
    of the local group commit, and the backup re-executes it as one
    group commit of its own. *)

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

val rop_bytes : rop -> int
(** Serialized payload size estimate, for the link bandwidth model. *)

val rop_ops : rop -> int
(** Client operations the entry represents: batch length for [R_batch],
    1 otherwise. Weights replication wait accounting the same way
    [n_ops] weights group-commit spans. *)

(** One data-link message: the primary ships each entry on its own, at
    commit. *)
type entry = {
  rseq : int;  (** Replication sequence number, in primary commit order. *)
  epoch : int;  (** The primary's epoch when shipped. *)
  lsn : int;  (** Primary oplog committed-LSN watermark at ship time. *)
  op : rop;
}

type ack_msg = {
  a_epoch : int;
  a_rseq : int;  (** Highest applied-and-persisted rseq ([a_ok]). *)
  a_lsn : int;  (** LSN watermark of that entry. *)
  a_ok : bool;  (** [false]: rejected — the sender's epoch is stale. *)
}

val apply_entry : Dstore.ctx -> rop -> unit
(** Re-execute a shipped op through the Table 2 API; durable on return
    (append-and-persist). Shared by {!Backup} and by test harnesses that
    replay a shipped sequence against a reference engine, so backup
    state is byte-reproducible by construction. *)
