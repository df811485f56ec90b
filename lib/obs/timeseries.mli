(** Sliding-window time series over virtual time.

    A ring of fixed-width buckets (default 100 ms of sim time each), each
    accumulating throughput, a latency histogram, and per-cause blame
    mass. Buckets are recycled lazily, so the series always covers the
    most recent [buckets * bucket_ns] of virtual time. Everything is
    DRAM-side bookkeeping: recording never advances the simulated clock. *)

type t

val create : ?bucket_ns:int -> ?buckets:int -> causes:string array -> unit -> t
(** [causes] names the blame vector's components (fixed at creation). *)

val observe : t -> now:int -> lat:int -> weight:int -> blame:int array -> unit
(** Record one (possibly batched) operation: [blame] is its per-op blame
    vector in create-order; mass scales with [weight]. *)

val clear : t -> unit

val merge_into : dst:t -> t -> unit
(** Bucket-wise merge by bucket number (same [bucket_ns] required); used
    to fold per-shard series into a cluster-wide one. *)

val to_json : t -> Json.t
(** Sorted list of live buckets:
    [{"t_ns", "ops", "throughput_ops_s", "p50".."p9999", "blame_ns": {..}}]. *)
