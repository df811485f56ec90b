(** Stable hash partitioning of object names onto shards.

    Routing must be a total, deterministic partition: every name maps to
    exactly one shard, the mapping depends only on the name's bytes and
    the shard count (never on lookup order, insertion history, or other
    keys), and it is identical across processes and runs — a recovered
    cluster must route every surviving object to the shard that owns its
    log records. The hash is FNV-1a (64-bit), folded to a non-negative
    OCaml int before the modulo. *)

type t

val create : shards:int -> t
(** Raises [Invalid_argument] unless [shards >= 1]. *)

val hash : string -> int
(** FNV-1a of the name's bytes, masked non-negative. Exposed for
    distribution tests. *)

val shard_of : t -> string -> int
(** The owning shard index, in [\[0, shards)]. Pure. *)
