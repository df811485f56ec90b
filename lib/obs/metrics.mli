(** Metrics registry: named counters, gauges, and log-linear histograms.

    Instruments are created (or looked up) by name once and then recorded
    through directly — recording is O(1), allocation-free, and gated on a
    single shared enable flag, so a disabled registry costs one load and
    branch per record. Registration and snapshotting take an internal
    lock; recording itself is lock-free (same discipline as the device
    stats records it subsumes: last-writer-wins races are acceptable for
    monitoring counters).

    Per-thread sharding: give each thread its own registry, record
    privately, then {!merge_into} an aggregate — counters add, histograms
    merge ({!Dstore_util.Histogram.merge_into}), so percentiles of the
    union are exact. *)

type t

type counter

type gauge

type histo

val create : ?enabled:bool -> unit -> t
(** New empty registry (default enabled). *)

val set_enabled : t -> bool -> unit
(** Enable/disable every instrument of this registry at once. While
    disabled, [incr]/[add]/[set_gauge]/[observe] are no-ops; values read
    back as last recorded. Callback gauges still evaluate on snapshot. *)

(** {1 Instruments}

    [counter]/[gauge]/[histogram] return the existing instrument when the
    name is already registered (same-kind), so independent modules can
    share a series by name. Registering a name under a different kind
    raises [Invalid_argument]. *)

val counter : t -> string -> counter

val incr : counter -> unit

val add : counter -> int -> unit

val counter_value : counter -> int

val gauge : t -> string -> gauge

val set_gauge : gauge -> int -> unit

val gauge_value : gauge -> int

val gauge_fn : t -> string -> (unit -> int) -> unit
(** Callback gauge: evaluated at snapshot time. Re-registering a name
    replaces the callback (a recovered store re-homes its views). Not
    transferred by {!merge_into}. *)

val histogram : ?sub_bits:int -> t -> string -> histo
(** See {!Dstore_util.Histogram.create} for [sub_bits]. *)

val observe : histo -> int -> unit

val histo_data : histo -> Dstore_util.Histogram.t
(** The underlying histogram, for percentile queries. *)

(** {1 Lookup, merge, reset} *)

val value : t -> string -> int option
(** Scalar lookup by name; [None] for histograms and unknown names. *)

val reset : t -> unit
(** Zero counters and gauges, reset histograms. Callback gauges are
    views and are unaffected. *)

val merge_into : ?prefix:string -> ?materialize:bool -> dst:t -> t -> unit
(** Fold a shard into an aggregate: counters add, gauges copy, histograms
    merge; instruments missing from [dst] are created. [prefix] (default
    [""]) is prepended to every instrument name on the [dst] side, so
    per-shard registries merge as ["shard0.op.put"], ["shard1.op.put"], …
    without clobbering each other. Callback gauges do not transfer unless
    [materialize] (default [false]) is set, in which case their current
    values are frozen into plain gauges in [dst]. *)

(** {1 Exporters} *)

val to_json : t -> Json.t
(** [{"counters": {..}, "gauges": {..}, "histograms": {name: {count, min,
    max, mean, p50, p99, p999, p9999, buckets: [[bound, count], ..]}}}] *)

val print : ?oc:out_channel -> t -> unit
(** Two fixed-width tables: scalars, then histogram summaries. *)
