(** Per-operation causal spans with exact stall attribution.

    A span cuts an operation's lifetime into named {e segments}
    ([seg] closes the period since the previous cut) and attaches
    {e blame intervals} for time spent stalled on a named cause
    ([stall] inside a period, subtracted from the enclosing segment at
    the next cut). Checkpoint interference is sampled ambiently from the
    shared PMEM bandwidth domain's bulk-busy clock ([set_ambient]). For
    every finished span the partition is exact:

    {v sum(segments) + sum(blames) = duration v}

    Spans are pure observers: they read the virtual clock but never
    advance it, take no locks, and — when the recorder is disabled —
    [start] returns the shared {!none} value and every mutator is a
    field-test no-op, so the disabled path allocates nothing. *)

type cause =
  | Ckpt_interference
      (** Checkpoint gate + [Pmem.with_bulk] bandwidth sharing. *)
  | Log_full  (** Append blocked until a checkpoint frees log space. *)
  | Conflict_retry  (** Per-key conflict-ticket wait + retry. *)
  | Batch_wait  (** Group commit: co-batched with (n-1) other ops. *)
  | Ssd_queue  (** SSD channel queueing. *)
  | Repl_wait  (** Replication: waiting for backup span acks. *)
  | Txn_retry
      (** OCC transaction: a retry waiting to reserve its key set
          ([Dipper.reserve]) after repeat aborts. *)
  | Repl_apply
      (** Backup apply pipeline: time a shipped entry spent queued
          between receipt and its re-execution through the group-commit
          path. Booked on the {e backup}'s recorder. *)

val n_causes : int
val cause_index : cause -> int
val cause_label : int -> string

type seg =
  | S_index
  | S_ticket
  | S_lock
  | S_append
  | S_fence
  | S_data
  | S_structs
  | S_stage
  | S_commit
  | S_ckpt_archive
  | S_ckpt_clone
  | S_ckpt_replay
  | S_ckpt_persist
  | S_ckpt_publish
  | S_rec_metadata
  | S_rec_replay
  | S_cache_fill
  | S_other

val n_segs : int
val seg_index : seg -> int

type kind = Put | Get | Delete | Write | Read | Batch | Txn | Checkpoint | Recovery

val is_op : kind -> bool
(** Checkpoint and recovery spans are recorded but excluded from the op
    latency histogram / tail reservoir / time series. *)

type t
type recorder

val none : t
(** The shared dead span handed out by [start] when the recorder is
    disabled; physically one value, all mutators no-op on it. *)

val live : t -> bool

val create :
  ?capacity:int ->
  ?reservoir:int ->
  ?bucket_ns:int ->
  ?ts_buckets:int ->
  enabled:bool ->
  now:(unit -> int) ->
  unit ->
  recorder
(** [capacity] bounds the finished-span ring; [reservoir] the tail
    reservoir (default 4x capacity); [bucket_ns]/[ts_buckets] shape the
    time series (defaults 100 ms x 64). *)

val set_enabled : recorder -> bool -> unit

val set_ambient : recorder -> (unit -> int) -> unit
(** Install the cumulative bulk-busy clock (ns) of the store's shared
    PMEM bandwidth domain; in-period deltas become [Ckpt_interference]
    blame on live op spans. *)

val capacity : recorder -> int

val start : recorder -> ?n_ops:int -> kind -> string -> t
(** Open a span; [n_ops] is the number of client ops it represents
    (group-commit batches). Returns {!none} when disabled. *)

val seg : t -> seg -> unit
(** Close the period since the last cut and charge it to a segment
    (minus any blame booked inside the period). *)

val stall : t -> cause -> int -> unit
(** Book [ns] of direct blame inside the open period. The event counter
    ticks on every call, mirroring the engine's [dipper.*] stall
    counters. *)

val detach : t -> t
(** A view for forked tasks: its stalls reach the span's open period
    only at [absorb s (detach s)]. *)

val absorb : t -> t -> unit

val note_stall : recorder -> cause -> int -> unit
(** Span-less blame (e.g. the cluster checkpoint gate holding a shard's
    manager); folds into the recorder's cause totals only. *)

val finish : t -> unit
(** Close the final period into [S_other], stamp [t1], push the span
    into the ring, and fold op spans into the histogram, reservoir and
    time series. *)

(** {2 Finished-span accessors} *)

val span_kind : t -> kind
val span_key : t -> string
val span_ops : t -> int
val span_seq : t -> int
val duration : t -> int
val segment : t -> seg -> int
val blame_of : t -> cause -> int
val events_of : t -> cause -> int
val segments_total : t -> int
val blame_total : t -> int

(** {2 Recorder accessors} *)

val finished : recorder -> int
(** Spans finished since creation (keeps counting past ring wraparound). *)

val ops : recorder -> int
(** Weighted op count folded into the latency histogram. *)

val hist : recorder -> Dstore_util.Histogram.t
val cause_ns : recorder -> int -> int
val cause_events : recorder -> int -> int

val spans : recorder -> t list
(** Buffered window, oldest first. *)

val last : recorder -> int -> t list
val reset : recorder -> unit

val merge_into : dst:recorder -> recorder -> unit
(** Fold [src] into [dst] (ring interleaved by completion time,
    histogram/reservoir/time-series/totals added); no-op when both are
    the same recorder. *)

(** {2 Reports} *)

val report : recorder -> Attribution.report
val report_json : recorder -> Json.t
val timeseries_json : recorder -> Json.t

val blame_json : recorder -> Json.t
(** [{cause: {"ns": .., "events": ..}, ...}] in cause-index order. *)

val print_report : ?oc:out_channel -> recorder -> unit
val print_spans : ?oc:out_channel -> ?n:int -> recorder -> unit
