(** One observability handle per store: a {!Metrics} registry and a
    {!Span} recorder behind a shared enable switch. All state is
    DRAM-only; nothing here may live in (or write to) the simulated
    PMEM. *)

type t = { metrics : Metrics.t; spans : Span.recorder }

val create :
  ?enabled:bool -> ?span_capacity:int -> now:(unit -> int) -> unit -> t
(** Also registers per-cause [blame.*_ns] / [blame.*_events] callback
    gauges over the span recorder, so cluster prefix-merges export
    per-shard blame rollups automatically. *)

val set_enabled : t -> bool -> unit
(** Switches the registry and the span recorder. *)

val to_json : t -> Json.t
(** [{"metrics": ..., "blame": {...}}]. *)

