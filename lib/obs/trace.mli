(** Trace ring: a bounded, DRAM-only buffer of typed events with
    virtual-time timestamps.

    The taxonomy covers the events that are not per-op work: the
    checkpoint phases (§3.5), log swaps, conflict and log-full stalls,
    recovery phases (§3.6), crash injections and notes. A write's nine
    steps (Figure 4) are the segments of its span ({!Span}). Memory is bounded by [capacity]; older events are
    overwritten. The tracer never writes PMEM and never consumes
    simulated time, so it cannot alter flush/fence ordering or measured
    latencies. *)

type ckpt_phase =
  | C_trigger
  | C_archive
  | C_clone
  | C_replay
  | C_persist
  | C_publish

type recovery_phase = R_start | R_redo_ckpt | R_rebuild | R_replay | R_done

type event =
  | Ckpt of ckpt_phase
  | Log_swap of { archived : int; active : int }
  | Conflict_wait of string
  | Log_full_stall
  | Recovery of recovery_phase
  | Crash_injected
  | Note of string

type entry = { seq : int; t_ns : int; ev : event }

type t

val create : ?capacity:int -> now:(unit -> int) -> unit -> t
(** [capacity] defaults to 4096 entries; [now] supplies timestamps
    (virtual time under the simulator). *)

val enabled : t -> bool

val set_enabled : t -> bool -> unit

val emit : t -> event -> unit
(** Append (overwriting the oldest entry once full). No-op when
    disabled. *)

val capacity : t -> int

val emitted : t -> int
(** Events emitted since creation or the last {!clear} — keeps counting
    past wraparound. *)

val length : t -> int
(** Entries currently held ([min emitted capacity]). *)

val to_list : t -> entry list
(** Current contents, oldest first. *)

val last : t -> int -> entry list
(** Newest [n] entries, oldest first. *)

val clear : t -> unit

val event_label : event -> string

val entry_json : entry -> Json.t

val to_json : ?last:int -> t -> Json.t

val print : ?oc:out_channel -> ?last:int -> t -> unit
(** Dump the newest [last] (default 20) entries, one per line. *)
