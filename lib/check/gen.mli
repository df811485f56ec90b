(** Deterministic op-sequence generator for the crash-point explorer.

    A scenario is fully determined by [(seed, n)]: the same pair produces
    the same operations and the same object contents in every run, which
    is what lets the explorer re-execute a counting run and crash it at an
    exact persistence event. *)

type batch_item =
  | B_put of { key : string; size : int; vseed : int }
  | B_del of string

type op =
  | Put of { key : string; size : int; vseed : int }
      (** Whole-object put of [value ~vseed size]. *)
  | Write of { key : string; off_pct : int; len : int; vseed : int }
      (** Partial in-place write; the driver resolves the offset as
          [off_pct]% of the object's current committed size (clamped), and
          skips the op deterministically if the key is absent. *)
  | Delete of string
  | Get of string
  | Lock of string  (** Advisory [olock]; sequences never double-lock. *)
  | Unlock of string  (** Only emitted for currently held locks. *)
  | Batch of batch_item list
      (** Group-commit batch over 2–4 pairwise-distinct, unlocked keys —
          drivers issue it through [obatch] and mirror it with
          [Oracle.begin_batch] (any-subset crash semantics). *)
  | Txn of { reads : string list; items : batch_item list }
      (** OCC transaction: a batch-shaped write-set plus a read-set of
          unlocked keys — drivers issue it through [Dstore_txn.txn] and
          mirror it with [Oracle.begin_txn] (all-or-nothing crash
          semantics). Single-client sequences always validate, so the
          driver treats an abort as a harness error. *)

val value : vseed:int -> int -> Bytes.t
(** The deterministic contents for a (seed, size) pair. *)

val generate : seed:int -> n:int -> op list
(** [n] operations drawn from a mixed put/overwrite/delete/read/lock
    distribution over a small key set (including long keys that force
    multi-slot log records), followed by unlocks for any still-held
    locks. *)
