(** Arena-resident B-tree: the object index of DStore (§4.2).

    Maps variable-length string keys (object names) to 63-bit integer
    values (metadata-zone ids). Nodes, and the key blobs they reference,
    are slab-allocated inside a {!Space}; every reference is a space
    offset, so the identical code runs on the volatile copy and — replayed
    by the checkpoint engine — on the PMEM shadow copy, and the whole index
    survives a space clone or a PMEM→DRAM recovery copy unchanged.

    Implementation notes: fixed 2 KB nodes (order 84), preemptive
    split-on-descent (CLRS), leaf chaining for ordered iteration, private
    copies for branch separator keys. Deletion is lazy (no rebalancing) —
    an explicit, documented trade-off: object-store workloads are
    insert/update/lookup-heavy and correctness never depends on occupancy.

    Concurrency: operations are not internally synchronized. Under the
    simulation platform each operation is atomic by construction; the
    stores charge modeled CPU time around calls and take a short structure
    lock on the real platform. *)

type t

val create : Dstore_memory.Space.t -> root_slot:int -> t
(** Build an empty tree. Uses header root slots [root_slot] (root node)
    and [root_slot + 1] (key count). *)

val attach : Dstore_memory.Space.t -> root_slot:int -> t
(** Re-open a tree previously created in this space (or in a space this
    one was cloned/copied from). *)

val max_key_len : int
(** The longest key [insert] accepts, in bytes. *)

val insert : t -> string -> int -> int option
(** [insert t key v] maps [key] to [v]; returns the previous value if the
    key was present (its blob is reused). Values must be >= 0. Raises
    [Invalid_argument] on a key longer than {!max_key_len}. *)

val find : t -> string -> int option

val mem : t -> string -> bool

val delete : t -> string -> int option
(** Remove the binding; returns the old value. The key blob is freed. *)

val length : t -> int

val iter : t -> (string -> int -> unit) -> unit
(** In key order. *)

val fold : t -> init:'a -> f:('a -> string -> int -> 'a) -> 'a

val check_invariants : t -> unit
(** Testing aid: walks the whole tree verifying key order, uniform leaf
    depth, separator correctness and the leaf chain. Raises [Failure] with
    a diagnostic on violation. *)
