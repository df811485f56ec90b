(** Deterministic discrete-event simulator built on OCaml 5 effect handlers.

    Processes are ordinary OCaml functions run under an effect handler;
    whenever a process waits ({!wait}), blocks on a {!Mutex} or {!Cond}, or
    queues on a {!Resource}, its continuation is captured and the virtual
    clock advances to the next scheduled event. Between two such points a
    process runs atomically, so OCaml-level state needs no low-level
    synchronization — yet lock contention, queueing, and stalls are modeled
    (and charged virtual time) faithfully.

    Events at equal times fire in spawn/schedule order, so a run is a pure
    function of the program and its seeds. All the paper's experiments run
    on this engine with 28 simulated client threads (see DESIGN.md). *)

type t

val create : unit -> t

val now : t -> int
(** Current virtual time in nanoseconds. *)

val spawn : t -> string -> (unit -> unit) -> unit
(** Register a new process, started at the current virtual time. Can be
    called both from outside [run] and from inside a running process. *)

val wait : t -> int -> unit
(** Advance this process's virtual time by [ns] (>= 0). Must be called
    from process context. *)

val run : t -> unit
(** Execute events until none remain. Re-raises the first exception a
    process raises. Suspended processes (blocked on a mutex, condition or
    resource nobody will ever signal) do not keep [run] alive; use
    {!blocked_processes} to detect deadlock. *)

val run_until : t -> int -> unit
(** Execute events with time <= the given instant, then set the clock to
    that instant. *)

val clear_pending : t -> unit
(** Drop every queued event and abandon all suspended processes — the
    simulation analogue of power loss. Crash-recovery tests call this at
    the chosen crash instant so in-flight operations of the old store
    incarnation cannot touch the devices afterwards; fresh processes may
    then be spawned against the recovered state. The simulator keeps no
    reference to a dropped process, so once the old incarnation's own
    structures (the mutexes and conds its processes park on) are dropped,
    their stacks are garbage. *)

val blocked_processes : t -> int
(** Number of processes currently suspended (waiting on a mutex, condition
    or resource). Nonzero after {!run} returns indicates deadlock or
    daemons that were never shut down. *)

val live_processes : t -> int
(** Processes spawned and not yet finished. *)

module Mutex : sig
  type sim := t

  type t

  val create : sim -> t

  val lock : t -> unit

  val unlock : t -> unit

  val locked : t -> bool
end

module Cond : sig
  type sim := t

  type t

  val create : sim -> t

  val wait : t -> Mutex.t -> unit

  val park_unlocking : t -> (unit -> unit) -> unit
  (** [park_unlocking c unlock] queues the calling process on [c] and only
      then runs [unlock], so a signal sent by the code [unlock] admits
      cannot be lost. Returns once signalled, without re-locking: the
      building block of {!wait} for mutexes other than {!Mutex}. *)

  val signal : t -> unit

  val broadcast : t -> unit
end

module Resource : sig
  type sim := t

  (** A pool of [capacity] identical servers with a FIFO queue — models
      bounded device parallelism (e.g. NVMe channels). *)

  type t

  val create : sim -> capacity:int -> t

  val acquire : t -> unit

  val release : t -> unit

  val use : t -> service_ns:int -> unit
  (** [use r ~service_ns] acquires a server, holds it for [service_ns] of
      virtual time, and releases it. *)

  val in_use : t -> int

  val queued : t -> int
end
