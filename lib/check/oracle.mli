(** Durability oracle: the crash-consistency contract as a volatile shadow
    model.

    The store's acknowledgement contract (§3.4/§3.6 of the paper) is:

    - an operation that returned before the crash is durable — recovery
      must surface exactly its effect;
    - the single operation in flight at the crash lands atomically or not
      at all (for whole-object puts and deletes), or as a page-prefix of
      its spliced image (for in-place [owrite], whose data path streams
      pages to the SSD before the commit word);
    - keys never touched must not exist.

    The driver mirrors its workload into the oracle: [begin_*] before
    issuing each store call, [commit_pending] after it returns. Because
    the DES is cooperative and the bookkeeping performs no simulated I/O,
    the oracle transitions are atomic with respect to crash points. After
    a crash + recovery, {!check} compares every key the workload ever
    touched (and the recovered store's name list) against the model. *)

type t

val create : unit -> t

(** {1 Workload mirroring (single client)} *)

val begin_put : t -> string -> Bytes.t -> unit

val begin_delete : t -> string -> unit

val begin_write :
  t -> key:string -> off:int -> data:Bytes.t -> page_size:int -> unit
(** Partial in-place write at [off] (must be [<=] the committed size; the
    key must be committed-present — the explorer skips writes to absent
    keys deterministically). *)

val begin_batch : t -> (string * Bytes.t option) list -> unit
(** Group commit in flight: per-key effect ([Some v] = put, [None] =
    delete) on pairwise-distinct keys (raises on a repeat). The batch
    contract is {e any-subset survival}: until [commit_pending], each key
    independently shows either its committed value or its batch effect;
    after it, every effect is durable. *)

val begin_txn : t -> (string * Bytes.t option) list -> unit
(** OCC transaction in flight: per-key effects as in {!begin_batch}, but
    with the {e all-or-nothing} contract — after a crash, either every
    member key shows its committed value or every member shows its txn
    effect. A mixed recovery (some members old, some new) is a torn
    transaction and {!check} reports it. *)

val commit_pending : t -> unit
(** The store call returned: fold the in-flight op into the committed
    model. *)

val abort_pending : t -> unit
(** Forget the in-flight op without committing (driver-side cleanup when
    an op raised for a modeled reason). *)

val committed_value : t -> string -> Bytes.t option
(** The durably-acknowledged value ([None] = absent). Drivers use this to
    make deterministic decisions (e.g. skip a write to an absent key). *)

(** {1 Checking} *)

val check :
  t -> read:(string -> Bytes.t option) -> names:string list -> string list
(** [check t ~read ~names] verifies a recovered store: [read] fetches a
    key's full recovered value (e.g. [Dstore.oget], which reads back
    through the metadata zone and SSD extents), [names] is the recovered
    object listing (phantom detection). Returns human-readable violations;
    empty = the recovered state is one the contract allows. *)
